package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the golden files instead of comparing:
//
//	go test ./cmd/fleet -run TestStdoutGolden -update
var update = flag.Bool("update", false, "rewrite testdata/*.golden with current output")

// TestStdoutGolden holds the command's stdout byte for byte: the
// batch-repro heavy op's shape with two policy arms, and the scripted
// defaults (no scheduler) on smaller clusters.
func TestStdoutGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"policies", []string{"-std", "2", "-compact", "1", "-leaves", "8", "-minutes", "2", "-policy", "slack-greedy,random"}},
		{"scripted", []string{"-minutes", "2", "-leaves", "4"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			path := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Fatalf("fleet %s:\n%s\nwant:\n%s", strings.Join(c.args, " "), stdout.Bytes(), want)
			}
		})
	}
}

// TestZeroCountDropsGeneration: a generation asked for zero clusters is
// not simulated, and the other prints the row it prints beside it.
func TestZeroCountDropsGeneration(t *testing.T) {
	rows := func(args ...string) map[string]string {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"-minutes", "2", "-leaves", "2"}, args...), &stdout, &stderr); code != 0 {
			t.Fatalf("fleet %v: exit %d: %s", args, code, stderr.String())
		}
		m := map[string]string{}
		for _, line := range strings.Split(stdout.String(), "\n") {
			if name, _, ok := strings.Cut(line, " "); ok {
				m[name] = line
			}
		}
		return m
	}
	both, noStd, noCompact := rows(), rows("-std", "0"), rows("-compact", "0")
	if _, ok := noStd["std/0"]; ok || noStd["compact"] != both["compact"] {
		t.Fatalf("-std 0: compact row %q, want %q and no std row", noStd["compact"], both["compact"])
	}
	if _, ok := noCompact["compact"]; ok || noCompact["std/1"] != both["std/1"] {
		t.Fatalf("-compact 0: std/1 row %q, want %q and no compact row", noCompact["std/1"], both["std/1"])
	}
}

// TestBadFlagsExitTwo: a value the command cannot run prints one line
// to stderr, nothing to stdout, and exits 2.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-std", "0", "-compact", "0"},
		{"-std", "-1"},
		{"-compact", "-2"},
		{"-leaves", "-3"},
		{"-minutes", "-1"},
		{"-jobs", "-4", "-policy", "random"},
		{"-policy", "bogus"},
		{"-policy", "slack-greedy,"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("fleet %v: exit %d, stdout %q, stderr %q; want 2, nothing, one line",
				args, code, stdout.String(), stderr.String())
		}
	}
}
