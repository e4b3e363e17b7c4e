package seqproc

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches inline markdown links [text](target). Images and
// reference-style links are not used in this repo.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// mdHeading matches ATX headings, whose GitHub anchor slugs intra-repo
// fragment links resolve against.
var mdHeading = regexp.MustCompile(`(?m)^#{1,6}\s+(.+)$`)

// TestDocLinks walks every markdown file in the repository and verifies
// each intra-repo link: the target file exists, and when the link
// carries a #fragment, the target contains a heading with that GitHub
// anchor slug. External links (scheme-qualified) are out of scope.
func TestDocLinks(t *testing.T) {
	var pages []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "bin" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.EqualFold(filepath.Ext(path), ".md") {
			pages = append(pages, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) == 0 {
		t.Fatal("no markdown files found; is the test running from the repo root?")
	}

	anchors := map[string]map[string]bool{} // file -> slug set, lazily built
	anchorsOf := func(file string) map[string]bool {
		if got, ok := anchors[file]; ok {
			return got
		}
		set := map[string]bool{}
		if raw, err := os.ReadFile(file); err == nil {
			set = headingAnchors(string(raw))
		}
		anchors[file] = set
		return set
	}

	for _, page := range pages {
		raw, err := os.ReadFile(page)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			file, fragment, _ := strings.Cut(target, "#")
			resolved := page // self-link
			if file != "" {
				resolved = filepath.Join(filepath.Dir(page), file)
				if info, err := os.Stat(resolved); err != nil {
					t.Errorf("%s links to %q: %v", page, target, err)
					continue
				} else if info.IsDir() {
					continue // directory links render fine on GitHub
				}
			}
			if fragment != "" && strings.EqualFold(filepath.Ext(resolved), ".md") {
				if !anchorsOf(resolved)[fragment] {
					t.Errorf("%s links to %q: no heading in %s has anchor #%s",
						page, target, resolved, fragment)
				}
			}
		}
	}
}

// headingAnchors returns the set of anchors a markdown document
// exposes, including GitHub's disambiguation rule for repeated
// headings: the second occurrence of a slug gets a -1 suffix, the
// third -2, and so on.
func headingAnchors(raw string) map[string]bool {
	set := map[string]bool{}
	count := map[string]int{}
	for _, m := range mdHeading.FindAllStringSubmatch(raw, -1) {
		slug := anchorSlug(m[1])
		if n := count[slug]; n > 0 {
			set[fmt.Sprintf("%s-%d", slug, n)] = true
		} else {
			set[slug] = true
		}
		count[slug]++
	}
	return set
}

// TestObservabilityTraceIsGolden checks that OBSERVABILITY.md's worked
// trace is the committed EXPLAIN ANALYZE golden it names, byte for byte:
// the fenced block after the line naming the golden.
func TestObservabilityTraceIsGolden(t *testing.T) {
	const golden = "testdata/analyze_example11.golden"
	doc, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(doc), "`"+golden+"`")
	if !ok {
		t.Fatalf("OBSERVABILITY.md does not name %s", golden)
	}
	_, block, ok := strings.Cut(after, "\n```\n")
	if !ok {
		t.Fatalf("no fenced block follows %s in OBSERVABILITY.md", golden)
	}
	block, _, ok = strings.Cut(block, "```\n")
	if !ok {
		t.Fatal("unterminated fenced block in OBSERVABILITY.md")
	}
	if block != string(want) {
		t.Errorf("OBSERVABILITY.md's worked trace differs from %s:\n--- doc ---\n%s--- golden ---\n%s", golden, block, want)
	}
}

func TestHeadingAnchorDuplicates(t *testing.T) {
	got := headingAnchors("# Setup\n\n## Example\n\ntext\n\n## Example\n\n## Example\n\n## Tear Down\n")
	for _, want := range []string{"setup", "example", "example-1", "example-2", "tear-down"} {
		if !got[want] {
			t.Errorf("anchor %q missing from %v", want, got)
		}
	}
	if got["example-3"] {
		t.Error("anchor example-3 should not exist for three occurrences")
	}
}

// anchorSlug reproduces GitHub's heading-to-anchor rule: strip inline
// formatting, lowercase, drop everything but letters, digits, spaces
// and hyphens, then turn spaces into hyphens.
func anchorSlug(heading string) string {
	heading = strings.ReplaceAll(heading, "`", "")
	heading = strings.ToLower(strings.TrimSpace(heading))
	var b strings.Builder
	for _, r := range heading {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// docPath matches a backticked repository path to a package, command or
// example, with an optional :line suffix.
var docPath = regexp.MustCompile("`((?:internal|cmd|examples)/[^`\\s:]*)(?::[^`\\s]*)?`")

// TestDocPaths checks that every backticked internal/, cmd/ or examples/
// path in the current documentation names an existing file or
// directory, so a deleted package leaves no row behind. ROADMAP.md,
// CHANGES.md and PAPER*.md are history and name what once was; bench/
// documents its own generated output.
func TestDocPaths(t *testing.T) {
	pages, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	pages = append(pages, "README.md", "DESIGN.md", "OBSERVABILITY.md", "EXPERIMENTS.md")
	for _, page := range pages {
		raw, err := os.ReadFile(page)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docPath.FindAllStringSubmatch(string(raw), -1) {
			if _, err := os.Stat(m[1]); err != nil {
				t.Errorf("%s names %s: %v", page, m[0], err)
			}
		}
	}
}
