package stats

import (
	"math"
	"strings"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(1, 4); got != 0.25 {
		t.Fatalf("Ratio(1,4) = %v", got)
	}
	if got := Ratio(3, 0); got != 0 {
		t.Fatalf("Ratio(3,0) = %v, want 0", got)
	}
}

func TestRatioEdgeCases(t *testing.T) {
	// Zero over zero is 0, not NaN.
	if got := Ratio(0, 0); got != 0 {
		t.Fatalf("Ratio(0,0) = %v, want 0", got)
	}
	// Operands near the top of the uint64 range divide through float64
	// without overflow; equal operands come out 1 exactly.
	if got := Ratio(math.MaxUint64, math.MaxUint64); got != 1 {
		t.Fatalf("Ratio(max,max) = %v, want 1", got)
	}
	got := Ratio(math.MaxUint64/2, math.MaxUint64)
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("Ratio near max = %v", got)
	}
	if math.Abs(got-0.5) > 1e-15 {
		t.Fatalf("Ratio(max/2, max) = %v, want ~0.5", got)
	}
	// Part greater than total is allowed and exceeds 1 (e.g. ticks over
	// instructions); it must still be finite.
	if got := Ratio(10, 3); got < 3.3 || got > 3.4 {
		t.Fatalf("Ratio(10,3) = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table X", "NP", "L", "TPI")
	tb.AddRow("2", ".20", "13.3")
	tb.AddRow("12", ".78", "17.7")
	s := tb.String()
	if !strings.Contains(s, "Table X") {
		t.Fatalf("missing title:\n%s", s)
	}
	if !strings.Contains(s, "NP") || !strings.Contains(s, "TPI") {
		t.Fatalf("missing headers:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("want 5 lines (title, header, rule, 2 rows), got %d:\n%s", len(lines), s)
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("1")
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	// Header, rule, and the short row padded with empty cells to the
	// full width.
	if len(lines) != 3 || lines[2] != "1      " {
		t.Fatalf("short row rendered as %q", lines)
	}
}
