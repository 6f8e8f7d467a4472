package main

import (
	"bytes"
	"testing"
)

// TestBadFlagsExitBeforeGenerating: a flag prodb cannot honour exits 2
// before anything is generated, so nothing reaches stdout.
func TestBadFlagsExitBeforeGenerating(t *testing.T) {
	for _, args := range [][]string{
		{"-cluster", "0"},
		{"-cluster", "-1"},
		{"-cluster", "256"},
		{"-form", "bogus"},
		{"-no-such-flag"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 || out.Len() != 0 || errs.Len() == 0 {
			t.Errorf("%q: exit %d, %d bytes out, stderr %q; want exit 2, nothing out, a message", args, code, out.Len(), errs.String())
		}
	}
}
