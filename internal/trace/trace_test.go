package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(10)
	for _, v := range []float64{1, 2, 11, 12, 13, 25} {
		h.Add(v)
	}
	if h.N() != 6 {
		t.Fatalf("n=%d", h.N())
	}
	bks := h.Buckets()
	if len(bks) != 3 {
		t.Fatalf("buckets %v", bks)
	}
	if bks[0].Count != 2 || bks[1].Count != 3 || bks[2].Count != 1 {
		t.Fatalf("bucket counts %v", bks)
	}
	if h.Min() != 1 || h.Max() != 25 {
		t.Fatalf("min/max %v/%v", h.Min(), h.Max())
	}
	if m := h.Mean(); m < 10 || m > 11 {
		t.Fatalf("mean %v", m)
	}
}

func TestHistogramNegativeValuesBucketCorrectly(t *testing.T) {
	h := NewHistogram(10)
	h.Add(-5)
	b := h.Buckets()[0]
	if b.Lo != -10 || b.Hi != 0 {
		t.Fatalf("negative bucket [%v,%v)", b.Lo, b.Hi)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(100)
	for i := 0; i < 50; i++ {
		h.Add(480)
	}
	for i := 0; i < 10; i++ {
		h.Add(750)
	}
	var buf bytes.Buffer
	h.Render(&buf, 40)
	out := buf.String()
	if !strings.Contains(out, "#") || strings.Count(out, "\n") != 2 {
		t.Fatalf("render output:\n%s", out)
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteCSV(&buf, []string{"x", "y"}, [][]float64{{1, 2}, {3, 4.5}})
	if err != nil {
		t.Fatal(err)
	}
	want := "x,y\n1,2\n3,4.5\n"
	if buf.String() != want {
		t.Fatalf("got %q want %q", buf.String(), want)
	}
}

func TestTableRenderAligned(t *testing.T) {
	tb := NewTable("name", "value")
	tb.Row("versions-hit", 480.0)
	tb.Row("l0", 750.0)
	var buf bytes.Buffer
	tb.Render(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("table:\n%s", buf.String())
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatalf("header %q", lines[0])
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 3, 0})
	if len([]rune(s)) != 6 {
		t.Fatalf("sparkline %q", s)
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline should be empty")
	}
	flat := Sparkline([]float64{5, 5, 5})
	if len([]rune(flat)) != 3 {
		t.Fatalf("flat sparkline %q", flat)
	}
}
