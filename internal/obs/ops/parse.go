package ops

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line: a sample name (which for histograms
// carries the _bucket/_sum/_count suffix), its label set, and the value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Scrape is one parsed exposition. It is the shared consumer-side half of
// the format: `meecc top` renders dashboards from it and the CI smoke
// asserts required families through it, so the encoder and every consumer
// agree on one grammar.
type Scrape struct {
	// Types maps family name → TYPE (counter, gauge, histogram).
	Types map[string]string
	// Samples maps sample name → every series parsed under that name.
	Samples map[string][]Sample
}

// ParseText parses a Prometheus text-format exposition. Unknown comment
// lines are skipped; malformed sample lines are errors (a scrape that cannot
// be trusted should fail loudly, not render a half-dashboard).
func ParseText(r io.Reader) (*Scrape, error) {
	sc := &Scrape{Types: map[string]string{}, Samples: map[string][]Sample{}}
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				sc.Types[fields[2]] = fields[3]
			}
			continue
		}
		sample, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("ops: exposition line %d: %w", lineNo, err)
		}
		sc.Samples[sample.Name] = append(sc.Samples[sample.Name], sample)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("ops: reading exposition: %w", err)
	}
	return sc, nil
}

// parseSample parses one `name{labels} value` line.
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[i+1:end], s.Labels); err != nil {
			return s, err
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return s, fmt.Errorf("sample %q has no value", line)
		}
		s.Name = fields[0]
		rest = fields[1]
	}
	if s.Name == "" {
		return s, fmt.Errorf("sample %q has no name", line)
	}
	// A timestamp may trail the value; take the first field as the value.
	if fields := strings.Fields(rest); len(fields) > 0 {
		rest = fields[0]
	}
	v, err := parseValue(rest)
	if err != nil {
		return s, fmt.Errorf("sample %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseValue parses a sample value, accepting the format's +Inf/-Inf/NaN
// spellings.
func parseValue(v string) (float64, error) {
	switch v {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(v, 64)
}

// parseLabels parses `k="v",k2="v2"` into dst, unescaping values.
func parseLabels(s string, dst map[string]string) error {
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return fmt.Errorf("label %q missing '='", s)
		}
		key := strings.TrimSpace(s[:eq])
		rest := s[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return fmt.Errorf("label %q value not quoted", key)
		}
		rest = rest[1:]
		var val strings.Builder
		i := 0
		for {
			if i >= len(rest) {
				return fmt.Errorf("label %q value unterminated", key)
			}
			c := rest[i]
			if c == '"' {
				break
			}
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
			} else {
				val.WriteByte(c)
			}
			i++
		}
		dst[key] = val.String()
		rest = rest[i+1:]
		rest = strings.TrimPrefix(strings.TrimSpace(rest), ",")
		s = strings.TrimSpace(rest)
	}
	return nil
}

// Has reports whether the scrape contains the family: either a TYPE line or
// at least one sample under the name (histograms match their base name).
func (sc *Scrape) Has(family string) bool {
	if _, ok := sc.Types[family]; ok {
		return true
	}
	if _, ok := sc.Samples[family]; ok {
		return true
	}
	_, ok := sc.Samples[family+"_count"]
	return ok
}

// Value sums every series of the sample name (counters and gauges; pass
// name_count/name_sum for histogram aggregates). Missing names return 0.
func (sc *Scrape) Value(name string) float64 {
	var total float64
	for _, s := range sc.Samples[name] {
		total += s.Value
	}
	return total
}

// Quantile estimates the q-quantile (0 < q <= 1) of the histogram family
// from its cumulative buckets, merging every label set, with the standard
// linear interpolation inside the winning bucket. It returns 0 when the
// histogram is absent or empty, and the highest finite bound when the
// quantile lands in the +Inf bucket.
func (sc *Scrape) Quantile(family string, q float64) float64 {
	type bucket struct {
		le  float64
		cum float64
	}
	byLE := map[float64]float64{}
	for _, s := range sc.Samples[family+"_bucket"] {
		le, err := parseValue(s.Labels["le"])
		if err != nil {
			continue
		}
		byLE[le] += s.Value
	}
	if len(byLE) == 0 {
		return 0
	}
	buckets := make([]bucket, 0, len(byLE))
	for le, cum := range byLE {
		buckets = append(buckets, bucket{le, cum})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := buckets[len(buckets)-1].cum
	if total == 0 {
		return 0
	}
	target := q * total
	for i, b := range buckets {
		if b.cum < target {
			continue
		}
		if math.IsInf(b.le, 1) {
			if i == 0 {
				return 0
			}
			return buckets[i-1].le
		}
		lo, prevCum := 0.0, 0.0
		if i > 0 {
			lo = buckets[i-1].le
			prevCum = buckets[i-1].cum
		}
		inBucket := b.cum - prevCum
		if inBucket <= 0 {
			return b.le
		}
		return lo + (b.le-lo)*(target-prevCum)/inBucket
	}
	return buckets[len(buckets)-1].le
}
