package scheduler

// HTTP introspection surface (DESIGN.md §13): a mux a server embedding the
// scheduler can mount to inspect it live — Prometheus metrics, the decision
// journal, context health and running placements, and per-job contention
// attribution. All endpoints are read-only snapshots; none holds mu across
// a response write.

import (
	"encoding/json"
	"fmt"
	"net/http"

	"pandia/internal/core"
	"pandia/internal/obs"
	"pandia/internal/placement"
)

// Mux returns the scheduler's introspection endpoints on a fresh ServeMux:
//
//	/metrics          Prometheus text exposition of the default registry
//	/debug/decisions  the decision journal's records and incident dumps
//	/debug/health     context health, running assignments, journal counters
//	/debug/explain    ?job=ID: contention attribution under the running mix
//
// Mount it on any http.Server; everything is safe for concurrent use with
// live scheduling.
func (s *Scheduler) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Default().PrometheusHandler())
	mux.HandleFunc("/debug/decisions", s.handleDecisions)
	mux.HandleFunc("/debug/health", s.handleHealth)
	mux.HandleFunc("/debug/explain", s.handleExplain)
	return mux
}

func (s *Scheduler) handleDecisions(w http.ResponseWriter, req *http.Request) {
	j := s.Journal()
	if j == nil {
		http.Error(w, "scheduler has no decision journal configured", http.StatusNotFound)
		return
	}
	j.Handler().ServeHTTP(w, req)
}

// healthAssignment is one running job in the /debug/health response.
type healthAssignment struct {
	Job       string   `json:"job"`
	Placement string   `json:"placement"`
	Threads   int      `json:"threads"`
	Strategy  string   `json:"strategy,omitempty"`
	Degraded  bool     `json:"degraded,omitempty"`
	Reasons   []string `json:"degraded_reasons,omitempty"`
}

// healthResponse is the /debug/health payload.
type healthResponse struct {
	Machine  string             `json:"machine"`
	Contexts HealthCounts       `json:"contexts"`
	Running  []healthAssignment `json:"running"`
	// JournalRecorded / JournalDropped are zero when no journal is
	// configured; Journaling distinguishes "off" from "quiet".
	Journaling      bool  `json:"journaling"`
	JournalRecorded int64 `json:"journal_recorded,omitempty"`
	JournalDropped  int64 `json:"journal_dropped,omitempty"`
}

func (s *Scheduler) handleHealth(w http.ResponseWriter, req *http.Request) {
	resp := healthResponse{
		Machine:  s.md.Topo.Name,
		Contexts: s.HealthCounts(),
		Running:  []healthAssignment{},
	}
	for _, a := range s.Assignments() {
		resp.Running = append(resp.Running, healthAssignment{
			Job:       a.Job.ID,
			Placement: a.Placement.String(),
			Threads:   len(a.Placement),
			Strategy:  a.Strategy,
			Degraded:  a.Degraded,
			Reasons:   a.DegradedReasons,
		})
	}
	if j := s.Journal(); j != nil {
		resp.Journaling = j.Enabled()
		resp.JournalRecorded = j.Recorded()
		resp.JournalDropped = j.Dropped()
	}
	writeJSON(w, resp)
}

// explainResponse is the /debug/explain payload: the job's placement and
// its structured contention attribution under the current running mix.
type explainResponse struct {
	Job       string            `json:"job"`
	Placement string            `json:"placement"`
	Mix       []string          `json:"mix"`
	Explain   *core.Explanation `json:"explain"`
}

func (s *Scheduler) handleExplain(w http.ResponseWriter, req *http.Request) {
	id := req.URL.Query().Get("job")
	if id == "" {
		http.Error(w, "missing ?job= parameter", http.StatusBadRequest)
		return
	}
	resp, text, err := s.explainJob(id, req.URL.Query().Get("format") == "text")
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if text != "" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, text)
		return
	}
	writeJSON(w, resp)
}

// explainJob jointly re-predicts the running mix and attributes the named
// job's predicted contention (text non-empty when rendered for a terminal).
func (s *Scheduler) explainJob(id string, asText bool) (*explainResponse, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.running[id]
	if !ok {
		return nil, "", fmt.Errorf("scheduler: job %q not running", id)
	}
	jobs, digests := s.mixLocked()
	idx := -1
	mix := make([]string, 0, len(jobs))
	for i, pw := range jobs {
		mix = append(mix, fmt.Sprintf("%s: %d threads on %s", s.mix[i].Job.ID, len(pw.Placement), placement.Placement(pw.Placement).String()))
		if s.mix[i] == a {
			idx = i
		}
	}
	if idx < 0 {
		return nil, "", fmt.Errorf("scheduler: job %q not in the running mix", id)
	}
	co, err := s.predictMixLocked(jobs, digests, 0)
	if err != nil {
		return nil, "", err
	}
	ex, err := core.ExplainPrediction(s.md, co.Predictions[idx], a.Placement)
	if err != nil {
		return nil, "", err
	}
	ex.Workload = id
	if asText {
		return nil, ex.Render(), nil
	}
	return &explainResponse{
		Job:       id,
		Placement: a.Placement.String(),
		Mix:       mix,
		Explain:   ex,
	}, "", nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
