package metrics

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Sample is one parsed sample line from a Prometheus text scrape.
type Sample struct {
	// Name is the sample name as written, including any _bucket/_sum/
	// _count suffix on histogram series.
	Name string
	// Labels holds the label pairs, nil when the sample has none.
	Labels map[string]string
	// Value is the sample value.
	Value float64
}

// ParseText parses a Prometheus text-format scrape into samples keyed
// by sample name. It is strict enough to catch malformed output —
// every non-comment, non-blank line must be a well-formed sample — and
// is what segload's probe, obscheck, and the package tests use to
// assert /metrics stays parseable.
func ParseText(r io.Reader) (map[string][]Sample, error) {
	out := map[string][]Sample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", lineNo, err)
		}
		out[s.Name] = append(out[s.Name], s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseSample(line string) (Sample, error) {
	var s Sample
	rest := line
	// Name: up to '{' or whitespace.
	end := strings.IndexAny(rest, "{ \t")
	if end <= 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = rest[:end]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[end:]
	// Optional label block.
	if strings.HasPrefix(rest, "{") {
		labels, tail, err := parseLabels(rest[1:])
		if err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		s.Labels = labels
		rest = tail
	}
	fields := strings.Fields(rest)
	// A trailing timestamp is legal in the exposition format; we accept
	// and ignore it.
	if len(fields) != 1 && len(fields) != 2 {
		return s, fmt.Errorf("want value after name in %q", line)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("bad value %q in %q", fields[0], line)
	}
	s.Value = v
	return s, nil
}

func parseValue(tok string) (float64, error) {
	// strconv accepts "+Inf"/"NaN" spellings directly.
	return strconv.ParseFloat(tok, 64)
}

// parseLabels reads the label pairs of a label block up to its closing
// brace, which counts only outside a quoted value, and returns the
// text after the brace.
func parseLabels(body string) (labels map[string]string, tail string, err error) {
	labels = map[string]string{}
	for {
		body = strings.TrimSpace(body)
		if strings.HasPrefix(body, "}") {
			return labels, body[1:], nil
		}
		eq := strings.IndexByte(body, '=')
		if eq <= 0 {
			return nil, "", fmt.Errorf("malformed label pair")
		}
		key := strings.TrimSpace(body[:eq])
		if !validMetricName(key) {
			return nil, "", fmt.Errorf("invalid label name %q", key)
		}
		rest := body[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return nil, "", fmt.Errorf("unquoted label value")
		}
		val, after, err := unquoteLabel(rest)
		if err != nil {
			return nil, "", err
		}
		labels[key] = val
		body = strings.TrimPrefix(strings.TrimSpace(after), ",")
	}
}

// unquoteLabel consumes a leading double-quoted string (with \\, \",
// and \n escapes per the exposition format) and returns the rest.
func unquoteLabel(s string) (val, tail string, err error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
			if i >= len(s) {
				return "", "", fmt.Errorf("truncated escape")
			}
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(s[i])
			}
		case '"':
			return b.String(), s[i+1:], nil
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

func validMetricName(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return len(name) > 0
}
