package eval

import (
	"fmt"
	"io"
	"strings"

	"pandia/internal/bench"
	"pandia/internal/core"
)

// AblationRow reports one workload's median error under each predictor
// configuration of the DESIGN.md ablation study.
type AblationRow struct {
	Workload   string
	Full       float64
	SinglePass float64
	NoBurst    float64
	NoComm     float64
	NoLB       float64
}

// Ablations measures how much each model term contributes: the median
// placement error with the full model versus with individual terms removed
// (the design choices §5 argues for).
func Ablations(h *Harness, entries []bench.Entry) ([]AblationRow, error) {
	configs := []struct {
		name string
		opt  core.Options
		set  func(*AblationRow, float64)
	}{
		{"full", core.Options{}, func(r *AblationRow, v float64) { r.Full = v }},
		{"single-pass", core.Options{MaxIterations: 1}, func(r *AblationRow, v float64) { r.SinglePass = v }},
		{"no-burstiness", core.Options{DisableBurstiness: true}, func(r *AblationRow, v float64) { r.NoBurst = v }},
		{"no-comm", core.Options{DisableComm: true}, func(r *AblationRow, v float64) { r.NoComm = v }},
		{"no-load-balance", core.Options{DisableLoadBalance: true}, func(r *AblationRow, v float64) { r.NoLB = v }},
	}
	var rows []AblationRow
	for _, e := range entries {
		prof, err := h.Profile(e)
		if err != nil {
			return nil, err
		}
		meas, err := h.MeasureAll(e)
		if err != nil {
			return nil, err
		}
		row := AblationRow{Workload: e.Name}
		for _, cfg := range configs {
			preds, err := core.PredictSweep(h.MD, &prof.Workload, h.Placements(), cfg.opt)
			if err != nil {
				return nil, fmt.Errorf("eval: ablation %s of %s: %w", cfg.name, e.Name, err)
			}
			pred := make([]float64, len(preds))
			for i, p := range preds {
				pred[i] = p.Time
			}
			cfg.set(&row, ComputeMetrics(meas, pred).MedianErr)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderAblations prints the ablation table.
func RenderAblations(w io.Writer, machine string, rows []AblationRow) error {
	title := fmt.Sprintf("Ablations on %s (median error %%)", machine)
	if _, err := fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title))); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-12s %8s %12s %10s %10s %8s\n",
		"workload", "full", "single-pass", "no-burst", "no-comm", "no-lb"); err != nil {
		return err
	}
	var f, sp, nb, nc, nl []float64
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-12s %8.1f %12.1f %10.1f %10.1f %8.1f\n",
			r.Workload, r.Full, r.SinglePass, r.NoBurst, r.NoComm, r.NoLB); err != nil {
			return err
		}
		f = append(f, r.Full)
		sp = append(sp, r.SinglePass)
		nb = append(nb, r.NoBurst)
		nc = append(nc, r.NoComm)
		nl = append(nl, r.NoLB)
	}
	_, err := fmt.Fprintf(w, "%-12s %8.1f %12.1f %10.1f %10.1f %8.1f\n",
		"median", median(f), median(sp), median(nb), median(nc), median(nl))
	return err
}
