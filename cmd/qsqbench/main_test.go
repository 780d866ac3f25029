package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runArgs parses a command line and runs it, returning stdout.
func runArgs(t *testing.T, args ...string) (string, error) {
	t.Helper()
	o, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run(o, &out)
	return out.String(), err
}

// -bench names an experiment's JSON record; asking for it where none exists
// must fail before anything runs, not exit 0 having written nothing.
func TestBenchWithoutArchiveIsAnError(t *testing.T) {
	for _, exp := range []string{"admission", "all", "fig5", "table2", "chaos", "overhead"} {
		path := filepath.Join(t.TempDir(), "x.json")
		out, err := runArgs(t, "-exp", exp, "-bench", path)
		if err == nil || !strings.Contains(err.Error(), "-bench") {
			t.Fatalf("-exp %s -bench: err = %v, want a -bench error", exp, err)
		}
		if out != "" {
			t.Fatalf("-exp %s -bench printed before failing:\n%s", exp, out)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("-exp %s -bench left a file behind (stat err %v)", exp, err)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := runArgs(t, "-exp", "fig9"); err == nil || !strings.Contains(err.Error(), `"fig9"`) {
		t.Fatalf("err = %v, want unknown experiment", err)
	}
}

func TestBadOverloadScale(t *testing.T) {
	if _, err := runArgs(t, "-exp", "overload", "-overload-scale", "-1"); err == nil ||
		!strings.Contains(err.Error(), "-overload-scale") {
		t.Fatalf("err = %v, want a -overload-scale error", err)
	}
}

// An archived experiment writes its report, CSV, and JSON record, in that
// order.
func TestBenchWritesRecordAndCSV(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "bench.json")
	out, err := runArgs(t, "-exp", "saturate", "-sessions", "2000", "-live", "200", "-goroutines", "2",
		"-replicas", "2", "-parallel", "2", "-csv", dir, "-bench", bench)
	if err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(dir, "saturate.csv")
	want := "wrote " + csvPath + "\nwrote " + bench + "\n"
	if !strings.HasPrefix(out, "Saturate: 2000 sessions") || !strings.HasSuffix(out, want) {
		t.Fatalf("stdout:\n%s", out)
	}
	data, err := os.ReadFile(bench)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Experiment string
		Fidelity   []struct{ Mode string }
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Experiment != "saturate" || len(rec.Fidelity) != 2 {
		t.Fatalf("record = %+v", rec)
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "mode,sessions,live,admitted,rejected,decision_hash\n") {
		t.Fatalf("csv:\n%s", csv)
	}
}

// A report name selects its experiment but prints only that report; the
// CSV keeps the experiment's name.
func TestReportNameSelectsItsReport(t *testing.T) {
	dir := t.TempDir()
	out, err := runArgs(t, "-exp", "table2", "-frames", "60", "-csv", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "Table 2:") || strings.Contains(out, "Figure 5") {
		t.Fatalf("stdout:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig5.csv")); err != nil {
		t.Fatal(err)
	}
}
