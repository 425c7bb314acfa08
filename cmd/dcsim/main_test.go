package main

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRejectsUnrunnableFlags drives the built binary: configurations that
// used to hang traffic generation forever (zero arrival rate, a single
// host) or be silently ignored must exit 2 with a message, and a sane
// small run must still exit 0. The timeout is what catches a regression to
// the hang.
func TestRejectsUnrunnableFlags(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "dcsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	small := []string{"-pods", "1", "-tors", "2", "-hosts", "2", "-ms", "1"}
	cases := []struct {
		name string
		args []string
		exit int
		msg  string // required substring of stderr
	}{
		{"ok", small, 0, ""},
		{"zero load", append([]string{"-load", "0"}, small...), 2, "-load"},
		{"negative load", append([]string{"-load", "-0.5"}, small...), 2, "-load"},
		{"one host", []string{"-pods", "1", "-tors", "1", "-hosts", "1"}, 2, "2 hosts"},
		{"zero pods", []string{"-pods", "0"}, 2, "topo:"},
		{"zero ms", []string{"-pods", "1", "-tors", "2", "-hosts", "2", "-ms", "0"}, 2, "-ms"},
		{"negative shards", append([]string{"-shards", "-1"}, small...), 2, "-shards"},
		{"negative oversub", append([]string{"-oversub", "-4"}, small...), 2, "-oversub"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin, c.args...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			if ctx.Err() != nil {
				t.Fatalf("dcsim %v did not exit within the timeout", c.args)
			}
			exit := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if exit != c.exit {
				t.Fatalf("dcsim %v: exit %d, want %d (stderr: %s)", c.args, exit, c.exit, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.msg) {
				t.Errorf("dcsim %v: stderr %q lacks %q", c.args, stderr.String(), c.msg)
			}
		})
	}
}
