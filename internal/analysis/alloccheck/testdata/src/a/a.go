// Package a is the alloccheck fixture: every allocation class Go has,
// reached from annotated entry points.
package a

import (
	"b"
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// Direct hits every builtin allocation source in its own body.
//
//pandia:noalloc
func Direct(s1, s2 string, bs []byte) {
	m := make(map[int]int) // want `make\(map\[int\]int\) allocates`
	m[1] = 2               // want `map insert m\[1\] allocates on insert`
	m[1]++                 // want `map update m\[1\] allocates on insert`
	sl := make([]int, 0)   // want `make\(\[\]int\) allocates`
	sl = append(sl, 1)     // want `append may grow its backing array`
	_ = sl
	p := new(int) // want `new\(int\) allocates`
	_ = p
	_ = s1 + s2       // want `string concatenation allocates`
	_ = []byte(s1)    // want `\[\]byte\(string\) conversion allocates`
	_ = string(bs)    // want `string\(\[\]byte\) conversion allocates`
	_ = []int{1, 2}   // want `slice literal allocates`
	_ = map[int]int{} // want `map literal allocates`
	_ = &pair{}       // want `&composite literal allocates`
}

type pair struct{ x, y int }

type boxer interface{}

// Boxing exercises every interface-boxing position go/types can see.
//
//pandia:noalloc
func Boxing(v int) {
	var x interface{} = v // want `initialisation boxes int into interface\{\}`
	x = v                 // want `assignment boxes int into interface\{\}`
	_ = x
	sinkIface(v)         // want `argument boxes int into interface\{\}`
	_ = []interface{}{v} // want `slice literal allocates` `composite literal boxes int into interface\{\}`
	_ = boxer(v)         // want `conversion boxes int into a\.boxer`
	ch <- v              // want `send boxes int into interface\{\}`
}

var ch = make(chan interface{}, 1)

func sinkIface(interface{}) {}

// RetBox boxes through its result tuple.
//
//pandia:noalloc
func RetBox(v int) interface{} {
	return v // want `return boxes int into interface\{\}`
}

type evt struct {
	tag string
	val interface{}
}

// FieldBox boxes into a struct field at the composite literal.
//
//pandia:noalloc
func FieldBox(n int) evt {
	return evt{tag: "x", val: n} // want `composite literal boxes int into interface\{\}`
}

func sinkVariadic(...interface{}) {}

// Variadic allocates the ...interface{} argument slice plus the box.
//
//pandia:noalloc
func Variadic(n int) {
	sinkVariadic(n) // want `variadic \.\.\.interface\{\} call allocates its argument slice` `argument boxes int into interface\{\}`
}

func spin() {}

// Closures: capturing literals and go statements allocate; static literals
// do not.
//
//pandia:noalloc
func Closures(n int) func() int {
	f := func() int { return n } // want `func literal captures n \(closure allocates\)`
	go spin()                    // want `go statement allocates a new goroutine`
	return f
}

// StaticClosure's literal captures nothing: proven clean, no findings.
//
//pandia:noalloc
func StaticClosure() func() int {
	return func() int { return 42 }
}

// DeferLoop accumulates a defer per iteration.
//
//pandia:noalloc
func DeferLoop(fns []func()) {
	for _, f := range fns {
		defer f() // want `defer inside a loop allocates per iteration` `cannot prove alloc-free: dynamic call through func value f`
	}
}

type ring struct{ n int }

func (r *ring) bump() { r.n++ }

// Bound creates a method-value closure.
//
//pandia:noalloc
func Bound(r *ring) func() {
	return r.bump // want `bound method value \(\*a\.ring\)\.bump allocates`
}

func helper() []int {
	return make([]int, 8) // want `make\(\[\]int\) allocates; .*path: a\.helper ← a\.Trans`
}

// Trans reaches helper's allocation transitively; the report lands on
// helper's line with the chain back to Trans.
//
//pandia:noalloc
func Trans() { _ = helper() }

// Cross reaches an allocation in the dependency package; the report is
// re-anchored to this call with the true location in the message.
//
//pandia:noalloc
func Cross() {
	b.DeepAlloc() // want `make\(\[\]int\) allocates \(at b/b\.go:\d+\); .*path: b\.DeepAlloc ← a\.Cross`
}

// FanOut dispatches through b.Sink; the fan-out reaches Grower's append.
//
//pandia:noalloc
func FanOut(s b.Sink) {
	s.Put(1) // want `append may grow its backing array \(at b/b\.go:\d+\); .*path: \(\*b\.Grower\)\.Put ← a\.FanOut`
}

// External calls land in the classification table: fmt allocates,
// unclassified packages are unprovable.
//
//pandia:noalloc
func External(err error) string {
	return fmt.Sprintf("e: %v", err) // want `call to fmt\.Sprintf allocates`
}

// Unknown cannot be proven: strconv is not in the table.
//
//pandia:noalloc
func Unknown(s string) int {
	n, _ := strconv.Atoi(s) // want `cannot prove alloc-free: external call to strconv\.Atoi`
	return n
}

// Sorted sorts in place: slices.Sort is classified alloc-free, while
// sort.Float64s (a sort.Interface conversion) stays unprovable.
//
//pandia:noalloc
func Sorted(xs []float64) {
	slices.Sort(xs)
	sort.Float64s(xs) // want `cannot prove alloc-free: external call to sort\.Float64s`
}

type remote interface{ Far() }

// NoImpl dispatches through an interface no module type implements.
//
//pandia:noalloc
func NoImpl(r remote) {
	r.Far() // want `cannot prove alloc-free: dynamic call through interface method \(a\.remote\)\.Far \(no module-local implementation\)`
}

// Clean is proven alloc-free end to end: no findings.
//
//pandia:noalloc
func Clean(x int) int { return b.Clean(x) + 1 }

// Suppressed documents a deliberate cold allocation; the reason makes it
// legal.
//
//pandia:noalloc
func Suppressed() {
	buf := make([]byte, 64) //alloccheck:ok one-time warm-up buffer
	_ = buf
}

// ColdPath suppresses the call edge into the cold error constructor.
//
//pandia:noalloc
func ColdPath(fail bool) error {
	if fail {
		return coldErr() //alloccheck:ok error path is cold by construction
	}
	return nil
}

func coldErr() error {
	return fmt.Errorf("cold failure")
}

func badSuppression() {
	_ = make([]int, 1) /*alloccheck:ok*/ // want `//alloccheck:ok needs a reason`
}
