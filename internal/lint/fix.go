package lint

import (
	"fmt"
	"go/format"
	"os"
	"sort"
)

// ApplyFixes applies the first suggested fix of every diagnostic that
// carries one, gofmts each touched file, and writes it back. Edits are
// applied per file from the highest offset down so earlier offsets
// stay valid.
//
// Overlap policy: of two edits on the same span the first in
// diagnostic order is kept and the rest are dropped — the next run
// re-evaluates what is left, and running -fix to a fixed point is safe
// because a fix resolves its diagnostic. Only exhaustive proposes
// fixes, so overlapping edits always come from one analyzer.
//
// Returns the fixed file names (sorted) and the number of fixes
// applied.
func ApplyFixes(diags []Diagnostic) (files []string, applied int, err error) {
	type edit struct {
		start, end int
		new        string
	}
	perFile := make(map[string][]edit)
	for _, d := range diags {
		if len(d.Fixes) == 0 {
			continue
		}
		for _, e := range d.Fixes[0].Edits {
			perFile[e.Pos.Filename] = append(perFile[e.Pos.Filename], edit{e.Pos.Offset, e.End.Offset, e.New})
		}
	}
	for name := range perFile {
		files = append(files, name)
	}
	sort.Strings(files)

	var fixed []string
	for _, name := range files {
		edits := perFile[name]
		// Stable order: by start offset, ties keep diagnostic order.
		sort.SliceStable(edits, func(i, j int) bool { return edits[i].start < edits[j].start })
		kept := edits[:0]
		lastEnd := -1
		for _, e := range edits {
			if e.start < lastEnd || e.start < 0 || e.end < e.start {
				continue // overlapping or malformed: defer to the next run
			}
			kept = append(kept, e)
			lastEnd = e.end
			if e.end == e.start {
				lastEnd = e.end + 1 // two insertions at one point would reorder; keep the first
			}
		}
		src, err := os.ReadFile(name)
		if err != nil {
			return fixed, applied, err
		}
		n := 0
		out := src
		for i := len(kept) - 1; i >= 0; i-- {
			e := kept[i]
			if e.end > len(src) {
				continue // out of range for the file on disk: defer to the next run
			}
			out = append(out[:e.start:e.start], append([]byte(e.new), out[e.end:]...)...)
			n++
		}
		formatted, ferr := format.Source(out)
		if ferr != nil {
			return fixed, applied, fmt.Errorf("fix for %s does not parse: %v", name, ferr)
		}
		if err := os.WriteFile(name, formatted, 0o644); err != nil {
			return fixed, applied, err
		}
		fixed = append(fixed, name)
		applied += n
	}
	return fixed, applied, nil
}
