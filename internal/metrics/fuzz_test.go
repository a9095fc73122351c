package metrics

import (
	"bytes"
	"math"
	"testing"
)

// FuzzParseText feeds ParseText untrusted scrapes, which must never
// panic it, and checks the round trip a scraper relies on: an
// exposition the registry renders, whatever its label value and
// sample values, parses back to exactly the samples it holds.
func FuzzParseText(f *testing.F) {
	f.Add([]byte("# HELP x y\n# TYPE x counter\nx 1\n"), "hit", uint64(3), int64(-2), 0.5)
	f.Add([]byte(`a{b="c\"d}",e="\\"} 1 1700000000`+"\n"), "q\"u}o\\te\nd, x=\"y\"", uint64(1<<63), int64(math.MinInt64), math.Inf(-1))
	f.Add([]byte("bad{le=\"1 3\n{\n"), "", uint64(0), int64(0), math.NaN())
	f.Fuzz(func(t *testing.T, scrape []byte, label string, n uint64, g int64, obs float64) {
		ParseText(bytes.NewReader(scrape))

		r := NewRegistry()
		r.NewCounter("fz_total", "counter").Add(n)
		r.NewGauge("fz_gauge", "gauge").Set(g)
		r.NewCounterVec("fz_vec_total", "vector", "result").WithLabel(label).Add(n)
		r.NewHistogram("fz_seconds", "histogram", []float64{-1, 0.5, 2}).Observe(obs)
		var buf bytes.Buffer
		r.WritePrometheus(&buf)
		text := buf.String()
		samples, err := ParseText(&buf)
		if err != nil {
			t.Fatalf("rendered exposition does not parse: %v\n%s", err, text)
		}
		same := func(name string, labels map[string]string, want float64) {
			t.Helper()
			for _, s := range samples[name] {
				if len(s.Labels) != len(labels) {
					continue
				}
				match := true
				for k, v := range labels {
					match = match && s.Labels[k] == v
				}
				if match && (s.Value == want || math.IsNaN(s.Value) && math.IsNaN(want)) {
					return
				}
			}
			t.Fatalf("no %s%v = %v in %+v\n%s", name, labels, want, samples[name], text)
		}
		same("fz_total", nil, float64(n))
		same("fz_gauge", nil, float64(g))
		same("fz_vec_total", map[string]string{"result": label}, float64(n))
		same("fz_seconds_count", nil, 1)
		same("fz_seconds_sum", nil, obs)
		cum := 0.0
		for _, b := range []struct {
			le    string
			bound float64
		}{{"-1", -1}, {"0.5", 0.5}, {"2", 2}, {"+Inf", math.Inf(1)}} {
			if obs <= b.bound || math.IsNaN(obs) && b.le == "+Inf" {
				cum = 1
			}
			same("fz_seconds_bucket", map[string]string{"le": b.le}, cum)
		}
		if got := len(samples); got != 6 {
			t.Fatalf("parsed %d sample names, want 6\n%s", got, text)
		}
	})
}
