package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// The files under testdata/ are procsim's output for every figure at a fixed
// small scale, with the wall-clock lines removed. A change that moves a
// reproduced number fails TestFigureGoldens; an intentional one regenerates
// them with
//
//	go test ./cmd/procsim -run TestFigureGoldens -update

var update = flag.Bool("update", false, "rewrite the figure goldens under testdata/")

// timingLines matches the two kinds of output line that carry wall-clock time.
var timingLines = regexp.MustCompile(`(?m)^(index built in .*|\[.* done in .*\])\n`)

// goldenArgs is the scale every golden is recorded at.
var goldenArgs = []string{"-dataset", "ne", "-objects", "8000", "-queries", "400", "-seed", "1"}

func TestFigureGoldens(t *testing.T) {
	for _, f := range figures {
		t.Run(f.name, func(t *testing.T) {
			var out, errs bytes.Buffer
			if code := run(append([]string{"-fig", f.name}, goldenArgs...), &out, &errs); code != 0 {
				t.Fatalf("exit %d: %s", code, errs.String())
			}
			got := timingLines.ReplaceAll(out.Bytes(), nil)
			path := filepath.Join("testdata", f.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("figure %s drifted from %s\n--- got ---\n%s--- want ---\n%s", f.name, path, got, want)
			}
		})
	}
}

// TestBadFlagsExitBeforeGenerating: a flag procsim cannot honour exits 2
// before anything is generated, so nothing reaches stdout.
func TestBadFlagsExitBeforeGenerating(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "bogus"},
		{"-dataset", "foo"},
		{"-fig", "6", "-dataset", "NE"},
		{"-no-such-flag"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 || out.Len() != 0 || errs.Len() == 0 {
			t.Errorf("%q: exit %d, %d bytes out, stderr %q; want exit 2, nothing out, a message", args, code, out.Len(), errs.String())
		}
	}
}
