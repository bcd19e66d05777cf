package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"pandia/internal/obs"
	"pandia/internal/scenario"
)

// cmdReplay replays one scenario file and writes its incident record. The
// record bytes are deterministic: replaying the same file always produces
// identical output, and `make scenario-golden`, a CI gate, compares each
// bundled scenario's record, and the journal JSONL written by -journal,
// with the goldens in internal/scenario/testdata/.
func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	out := fs.String("o", "", "write the incident record to this file (default stdout)")
	journalOut := fs.String("journal", "", "write the scheduler's decision journal to this file as JSONL")
	quiet := fs.Bool("q", false, "suppress the human-readable summary on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: pandia replay [-o record.json] [-q] <scenario.json>")
	}
	sc, err := scenario.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	res, err := scenario.Run(sc)
	if err != nil {
		return err
	}
	data, err := res.Record.Encode()
	if err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
	} else {
		if _, err := os.Stdout.Write(data); err != nil {
			return err
		}
	}
	if *journalOut != "" {
		var buf bytes.Buffer
		if err := obs.WriteJournalJSONL(&buf, res.Record.Journal); err != nil {
			return err
		}
		if err := os.WriteFile(*journalOut, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	if !*quiet {
		c := res.Record.Counts
		fmt.Fprintf(os.Stderr, "scenario %s on %s: %d events; submitted %d admitted %d rejected %d evicted %d migrated %d lost %d\n",
			res.Record.Scenario, res.Record.Machine, len(res.Record.Events),
			c.Submitted, c.Admitted, c.Rejected, c.Evicted, c.Migrated, c.Lost)
	}
	if len(res.Failures) > 0 {
		for _, f := range res.Failures {
			fmt.Fprintf(os.Stderr, "assertion failed: %s\n", f)
		}
		return fmt.Errorf("scenario %s: %d assertion(s) failed", res.Record.Scenario, len(res.Failures))
	}
	return nil
}
