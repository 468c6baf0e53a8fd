package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cnnrev"
)

// TestTraceModeHonoursAttackFlags: attacking a recorded LeNet trace takes
// the same attack flags as simulate mode and gets the same verdicts — 27
// candidates bare, 6 under a tight timing filter, and no read-only region
// left to match the input once the trace is padded.
func TestTraceModeHonoursAttackFlags(t *testing.T) {
	net := cnnrev.LeNet(10)
	net.InitWeights(2)
	tr, err := cnnrev.CaptureTrace(net, cnnrev.DefaultAccelConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lenet.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := cnnrev.WriteTrace(tr, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	base := []string{"-trace", path, "-inw", "28", "-ind", "1", "-classes", "10"}
	for _, tc := range []struct {
		flags []string
		want  int
	}{
		{nil, 27},
		{[]string{"-tol", "1.05"}, 6},
		{[]string{"-tolerant", "-modular", "-dataflow", "ws"}, 27},
	} {
		var out bytes.Buffer
		if err := run(slices.Concat(base, tc.flags), &out); err != nil {
			t.Fatalf("%v: %v", tc.flags, err)
		}
		if want := fmt.Sprintf("candidate structures: %d\n", tc.want); !strings.Contains(out.String(), want) {
			t.Fatalf("%v: output lacks %q:\n%s", tc.flags, want, out.String())
		}
	}
	err = run(slices.Concat(base, []string{"-defense", "pad"}), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no read-only region matches the declared 3136-byte input") {
		t.Fatalf("-defense pad: err %v, want the analysis to fail", err)
	}
}

// TestSimulateModeRejectsNegativeClasses: a negative class count is an
// error, not a panic in the network constructor.
func TestSimulateModeRejectsNegativeClasses(t *testing.T) {
	if err := run([]string{"-model", "lenet", "-classes", "-1"}, io.Discard); err == nil {
		t.Fatal("negative class count accepted")
	}
}
