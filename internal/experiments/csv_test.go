package experiments

import (
	"bytes"
	"strings"
	"testing"

	"quasaq/internal/simtime"
)

func TestWriteSeriesCSV(t *testing.T) {
	s, err := RunThroughput(SysQuaSAQ, ThroughputConfig{
		Seed: 5, Horizon: simtime.Seconds(60), Bucket: simtime.Seconds(20),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, SeriesTable([]*Series{s})); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(s.Outstanding) {
		t.Fatalf("csv rows = %d, want header + %d", len(lines), len(s.Outstanding))
	}
	if !strings.HasPrefix(lines[0], "time_s,system,outstanding") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "VDBMS+QuaSAQ") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestWriteFig5CSVAndSave(t *testing.T) {
	cfg := DefaultFig5Config()
	cfg.Frames = 50
	res, err := RunFig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, Fig5Table(res)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+4*50 {
		t.Fatalf("rows = %d, want %d", len(lines), 1+4*50)
	}
	if lines[0] != "frame,panel,delay_ms" {
		t.Fatalf("header = %q", lines[0])
	}
}
