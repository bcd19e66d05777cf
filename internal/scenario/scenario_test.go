package scenario

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"pandia/internal/obs"
)

func validScenario() string {
	return `{
  "name": "t",
  "machine": "toy",
  "seed": 1,
  "events": [
    { "at": 0, "type": "submit", "job": "a", "workload": "compute", "threads": 1 }
  ]
}`
}

func TestParseValid(t *testing.T) {
	sc, err := Parse([]byte(validScenario()))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "t" || len(sc.Events) != 1 {
		t.Fatalf("parsed %+v", sc)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"empty", ``, "scenario:"},
		{"not json", `{`, "scenario:"},
		{"trailing data", validScenario() + `{}`, "trailing data"},
		{"unknown field", `{"name":"t","machine":"toy","bogus":1,"events":[{"at":0,"type":"rebalance"}]}`, "bogus"},
		{"missing name", `{"machine":"toy","events":[{"at":0,"type":"rebalance"}]}`, "name is required"},
		{"unknown machine", `{"name":"t","machine":"cray-1","events":[{"at":0,"type":"rebalance"}]}`, "unknown machine preset"},
		{"no events", `{"name":"t","machine":"toy","events":[]}`, "at least one event"},
		{"unknown event type", `{"name":"t","machine":"toy","events":[{"at":0,"type":"explode"}]}`, "unknown event type"},
		{"unknown workload", `{"name":"t","machine":"toy","events":[{"at":0,"type":"submit","job":"a","workload":"spin"}]}`, "unknown workload preset"},
		{"missing job", `{"name":"t","machine":"toy","events":[{"at":0,"type":"submit","workload":"compute"}]}`, "job name is required"},
		{"missing socket", `{"name":"t","machine":"toy","events":[{"at":0,"type":"cordon-socket"}]}`, "socket is required"},
		{"socket out of range", `{"name":"t","machine":"toy","events":[{"at":0,"type":"cordon-socket","socket":9}]}`, "not on machine"},
		{"context out of range", `{"name":"t","machine":"toy","events":[{"at":0,"type":"fail-context","context":{"socket":0,"core":99,"slot":0}}]}`, "not on machine"},
		{"negative timestamp", `{"name":"t","machine":"toy","events":[{"at":-1,"type":"rebalance"}]}`, "negative timestamp"},
		{"out of order", `{"name":"t","machine":"toy","events":[{"at":5,"type":"rebalance"},{"at":1,"type":"rebalance"}]}`, "must be sorted"},
		{"zero spike count", `{"name":"t","machine":"toy","events":[{"at":0,"type":"load-spike","job":"a","workload":"compute"}]}`, "count 0 below 1"},
		{"negative threads", `{"name":"t","machine":"toy","events":[{"at":0,"type":"submit","job":"a","workload":"compute","threads":-1}]}`, "negative thread count"},
		{"bad probability", `{"name":"t","machine":"toy","faults":{"contextFailure":2},"events":[{"at":0,"type":"rebalance"}]}`, "outside [0,1]"},
		{"negative rate", `{"name":"t","machine":"toy","scheduler":{"admissionRate":-1},"events":[{"at":0,"type":"rebalance"}]}`, "admissionRate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.in))
			if err == nil {
				t.Fatal("parse accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCorpusReplaysByteIdentical checks replay determinism in process:
// every bundled scenario passes its assertions and two replays encode to
// identical bytes.
func TestCorpusReplaysByteIdentical(t *testing.T) {
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 4 {
		t.Fatalf("found %d bundled scenarios, want at least 4", len(paths))
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			sc, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			r1, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if len(r1.Failures) > 0 {
				t.Fatalf("assertions failed: %v", r1.Failures)
			}
			r2, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			b1, err := r1.Record.Encode()
			if err != nil {
				t.Fatal(err)
			}
			b2, err := r2.Record.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatal("two replays encoded differently")
			}
		})
	}
}

// TestSocketFailureZeroLost pins the headline incident: a socket dies under
// load, every displaced job is evicted, resubmitted, and re-placed on the
// surviving socket — nothing is lost.
func TestSocketFailureZeroLost(t *testing.T) {
	sc, err := Load("../../scenarios/socket-failure-under-load.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) > 0 {
		t.Fatalf("assertions failed: %v", res.Failures)
	}
	c := res.Record.Counts
	if c.Lost != 0 {
		t.Fatalf("lost %d jobs", c.Lost)
	}
	if c.Evicted != 4 || c.Resubmitted != 4 {
		t.Fatalf("evicted %d resubmitted %d, want 4/4", c.Evicted, c.Resubmitted)
	}
	if got := len(res.Record.Final.Running); got != 4 {
		t.Fatalf("%d jobs running at end, want 4", got)
	}
	if res.Record.Final.FailedContexts != 16 {
		t.Fatalf("failed contexts %d, want 16 (one x3-2 socket)", res.Record.Final.FailedContexts)
	}
	// Every survivor sits entirely on the surviving socket.
	for _, j := range res.Record.Final.Running {
		if strings.Contains(j.Placement, "s0/") {
			t.Fatalf("job %s still on failed socket: %s", j.ID, j.Placement)
		}
	}
}

// TestAdmissionStormBoundedRejections pins the overload posture: the token
// bucket sheds load with typed rejections while admitted jobs keep running.
func TestAdmissionStormBoundedRejections(t *testing.T) {
	sc, err := Load("../../scenarios/admission-storm.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) > 0 {
		t.Fatalf("assertions failed: %v", res.Failures)
	}
	c := res.Record.Counts
	if c.Rejected == 0 {
		t.Fatal("storm rejected nothing; rate limit not exercised")
	}
	if c.Lost != 0 {
		t.Fatalf("lost %d admitted jobs to the storm", c.Lost)
	}
	rate := int64(0)
	for _, d := range res.Record.MetricDeltas {
		if d.Name == "scheduler.rejections.rate_limited" {
			rate = d.Delta
		}
	}
	if rate != int64(c.Rejected) {
		t.Fatalf("rate-limited delta %d != rejected %d: unexpected rejection class", rate, c.Rejected)
	}
}

// TestSLORejectionFlightRecorder pins the dump-on-incident contract on the
// bundled SLO scenario: the fourth memory hog's rejection produces exactly
// one incident dump naming the rejecting policy, and the decision journal
// carries the rejected submit with its top-k alternatives.
func TestSLORejectionFlightRecorder(t *testing.T) {
	sc, err := Load("../../scenarios/slo-rejection.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) > 0 {
		t.Fatalf("assertions failed: %v", res.Failures)
	}

	if got := len(res.Record.Incidents); got != 1 {
		t.Fatalf("got %d incident dumps, want exactly 1", got)
	}
	inc := res.Record.Incidents[0]
	if inc.Trigger != "slo-rejection" || inc.Job != "mem-d" {
		t.Fatalf("incident = trigger %q job %q, want slo-rejection for mem-d", inc.Trigger, inc.Job)
	}
	if !strings.Contains(inc.Detail, "SLO") {
		t.Fatalf("incident detail %q does not name the rejecting policy", inc.Detail)
	}
	if inc.MetricDeltas["scheduler.rejections.slo"] != 1 {
		t.Fatalf("incident deltas = %v, want scheduler.rejections.slo: 1", inc.MetricDeltas)
	}

	var rejected *obs.DecisionRecord
	for i := range res.Record.Journal {
		r := &res.Record.Journal[i]
		if r.Op == "submit" && r.Outcome == "rejected" {
			if rejected != nil {
				t.Fatalf("second rejected submit in journal: %+v", r)
			}
			rejected = r
		}
	}
	if rejected == nil {
		t.Fatal("journal has no rejected submit record")
	}
	if rejected.Job != "mem-d" || rejected.Reason != "slo-exceeded" {
		t.Fatalf("rejected record = %+v", rejected)
	}
	if rejected.ID != inc.Decision {
		t.Fatalf("incident attributed to decision %d, rejection is %d", inc.Decision, rejected.ID)
	}
	alts := rejected.Alts()
	if len(alts) == 0 {
		t.Fatal("rejected record carries no alternatives")
	}
	for _, a := range alts {
		if a.Reject == "" {
			t.Fatalf("alternative %+v has no reject reason on an all-rejected sweep", a)
		}
	}
}

// TestDeterministicAcrossSeeds re-runs one scenario under a different seed
// and checks the record actually depends on it (the fault stream moved) —
// guarding against a silently ignored seed.
func TestSeedChangesFaultStream(t *testing.T) {
	sc, err := Load("../../scenarios/cascading-cordon.json")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := Load("../../scenarios/cascading-cordon.json")
	if err != nil {
		t.Fatal(err)
	}
	sc2.Seed = sc.Seed + 1
	sc2.Assert = nil
	r2, err := Run(sc2)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := r1.Record.Encode()
	b2, _ := r2.Record.Encode()
	if bytes.Equal(bytes.ReplaceAll(b1, []byte(`"seed": 11`), nil), bytes.ReplaceAll(b2, []byte(`"seed": 12`), nil)) {
		t.Fatal("changing the seed left the incident record unchanged")
	}
}

// TestLoadSpikeOrdering checks expansion determinism: simultaneous arrivals
// execute in declaration order by sequence number.
func TestLoadSpikeOrdering(t *testing.T) {
	sc, err := Parse([]byte(`{
  "name": "spike-order",
  "machine": "toy",
  "seed": 1,
  "events": [
    { "at": 0, "type": "load-spike", "job": "s", "workload": "compute", "threads": 1, "count": 3 }
  ]
}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	var subs []string
	for _, e := range res.Record.Events {
		if e.Type == "submit" {
			subs = append(subs, e.Target)
		}
	}
	want := []string{"s-00", "s-01", "s-02"}
	if len(subs) != len(want) {
		t.Fatalf("submits %v", subs)
	}
	for i := range want {
		if subs[i] != want[i] {
			t.Fatalf("submit order %v, want %v", subs, want)
		}
	}
}
