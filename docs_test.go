package gridseg

// The docs suite keeps the prose honest: every relative markdown link
// must resolve, intra-document anchors must match a real heading,
// every backticked internal/... path must exist, and the experiment
// tables in README.md and DESIGN.md must exactly match the
// internal/sim registry. CI runs it as the docs job
// (go test -run TestDocs .).

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"unicode"

	"gridseg/internal/sim"
)

// docFiles are the documents under the link checker.
var docFiles = []string{"README.md", "DESIGN.md", "CHANGES.md"}

var (
	// mdLink matches [text](target) while skipping images and code.
	mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	// mdHeading matches ATX headings for anchor resolution.
	mdHeading = regexp.MustCompile(`(?m)^#{1,6}\s+(.+)$`)
)

// slugify approximates GitHub's heading-anchor algorithm closely
// enough for this repository's headings.
func slugify(heading string) string {
	s := strings.ToLower(strings.TrimSpace(heading))
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// anchors returns the set of heading anchors of a document.
func anchors(doc string) map[string]bool {
	out := map[string]bool{}
	for _, m := range mdHeading.FindAllStringSubmatch(doc, -1) {
		out[slugify(m[1])] = true
	}
	return out
}

// stripCode removes fenced code blocks, whose bracketed text is not a
// markdown link.
func stripCode(doc string) string {
	var out []string
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestDocsLinks verifies every relative link target exists and every
// anchor-only link points at a real heading of the same document.
func TestDocsLinks(t *testing.T) {
	for _, file := range docFiles {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s must exist: %v", file, err)
		}
		doc := string(data)
		own := anchors(doc)
		for _, m := range mdLink.FindAllStringSubmatch(stripCode(doc), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"), strings.HasPrefix(target, "https://"), strings.HasPrefix(target, "mailto:"):
				// External links are not checked (CI must stay hermetic);
				// they only need a plausible scheme.
			case strings.HasPrefix(target, "#"):
				if !own[strings.TrimPrefix(target, "#")] {
					t.Errorf("%s: anchor link %q has no matching heading", file, target)
				}
			default:
				path, _, _ := strings.Cut(target, "#")
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s: link target %q does not exist", file, target)
				}
			}
		}
	}
}

// experimentIDs extracts the E<n> IDs of a markdown table column.
func experimentIDs(doc string) map[string]bool {
	ids := map[string]bool{}
	for _, m := range regexp.MustCompile(`\|\s*(E\d+)\s*\|`).FindAllStringSubmatch(doc, -1) {
		ids[m[1]] = true
	}
	return ids
}

// TestDocsExperimentIndex verifies the README experiment index and
// the DESIGN.md paper-to-code map both list exactly the experiments
// registered in internal/sim — no stale rows, no missing ones.
func TestDocsExperimentIndex(t *testing.T) {
	registry := map[string]bool{}
	for _, e := range sim.All() {
		registry[e.ID] = true
	}
	if len(registry) == 0 {
		t.Fatal("empty experiment registry")
	}
	for _, file := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		documented := experimentIDs(string(data))
		for id := range registry {
			if !documented[id] {
				t.Errorf("%s: experiment %s is registered but undocumented", file, id)
			}
		}
		for id := range documented {
			if !registry[id] {
				t.Errorf("%s: experiment %s is documented but not in the registry", file, id)
			}
		}
	}
}

// TestDocsDesignEntryPoints verifies every entry point the DESIGN.md
// map names actually exists in internal/sim, so the map cannot rot as
// code moves.
func TestDocsDesignEntryPoints(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile("`(runE\\d+)`, `(internal/sim/[a-z_]+\\.go)`").FindAllStringSubmatch(string(design), -1) {
		fn, file := m[1], m[2]
		src, err := os.ReadFile(file)
		if err != nil {
			t.Errorf("DESIGN.md names %s, which does not exist: %v", file, err)
			continue
		}
		if !strings.Contains(string(src), fmt.Sprintf("func %s(", fn)) {
			t.Errorf("DESIGN.md maps to %s in %s, but the function is not there", fn, file)
		}
	}
}

// internalPath matches a backticked repository path under internal/,
// optionally followed by a package-qualified symbol
// (`internal/grid.MarshalBinary`).
var internalPath = regexp.MustCompile("`(internal/[A-Za-z0-9_./-]*)`")

// TestDocsInternalPaths verifies every backticked internal/... path in
// README.md and DESIGN.md names a file or package that exists, so a
// deleted or moved package cannot leave a stale reference behind.
func TestDocsInternalPaths(t *testing.T) {
	for _, file := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range internalPath.FindAllStringSubmatch(string(data), -1) {
			path := m[1]
			// A package-qualified symbol names its package directory.
			if pkg, sym, ok := strings.Cut(path, "."); ok && sym != "" && unicode.IsUpper(rune(sym[0])) {
				path = pkg
			}
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s: %s does not exist", file, m[0])
			}
		}
	}
}
