package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"pandia/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden replay records and journals in testdata/")

// TestCorpusGolden pins every bundled scenario's incident record and
// decision journal byte for byte against files committed under testdata/.
// scenario-smoke and journal-smoke only compare two replays of one build;
// this test catches a change that moves a decision or a cache counter in
// every replay alike. Regenerate with `go test ./internal/scenario -run
// TestCorpusGolden -update` after an intended change.
func TestCorpusGolden(t *testing.T) {
	// The goldens are generated on linux/amd64. Other architectures may
	// fuse multiply-adds, which moves the last bits of a prediction.
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden replays are generated on amd64; GOARCH is %s", runtime.GOARCH)
	}
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no bundled scenarios found")
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			sc, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := res.Record.Encode()
			if err != nil {
				t.Fatal(err)
			}
			var journal bytes.Buffer
			if err := obs.WriteJournalJSONL(&journal, res.Record.Journal); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", name+".record.json"), rec)
			checkGolden(t, filepath.Join("testdata", name+".journal.jsonl"), journal.Bytes())
		})
	}
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the replay (%d bytes golden, %d replayed); rerun with -update if the change is intended", path, len(want), len(got))
	}
}
