package analysis

import (
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"testing"
)

// TestLineComments pins which lines DirectiveLines reports a directive
// comment as covering: its own line always, the next line only when nothing
// but whitespace precedes it, and none for prose that quotes the directive.
func TestLineComments(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		want []int // lines carrying the "//x" directive
	}{
		{"trailing", "package p\n\nvar a = 1 //x\nvar b = 2\n", []int{3}},
		{"line above", "package p\n\n//x\nvar b = 2\n", []int{3, 4}},
		{"indented line above", "package p\n\nfunc f() {\n\t//x\n\t_ = 1\n}\n", []int{4, 5}},
		{"trailing an opening brace", "package p\n\nfunc f(m map[int]int) {\n\tfor range m { //x\n\t\tfor range m {\n\t\t}\n\t}\n}\n", []int{4}},
		{"trailing closing brackets", "package p\n\nvar v = []int{\n\t1,\n} //x\nvar w = 2\n", []int{5}},
		{"block comment before code", "package p\n\n/*x*/ var a = 1\nvar b = 2\n", []int{3, 4}},
		{"prose quoting the directive", "package p\n\nvar a = 1 // not an x directive\n// see //x\nvar b = 2\n", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "p.go", tc.src, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			var got []int
			for line := range DirectiveLines(fset, f, "x") {
				got = append(got, line)
			}
			sort.Ints(got)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("covered lines = %v, want %v", got, tc.want)
			}
		})
	}
}
