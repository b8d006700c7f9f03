package main

import (
	"os/exec"
	"strings"
	"testing"
	"time"
)

func TestGuardKillsOverWallCeiling(t *testing.T) {
	start := time.Now()
	_, killed, _ := runGuarded(exec.Command("sleep", "10"), 200*time.Millisecond, 1<<20)
	if !strings.Contains(killed, "wall-clock") {
		t.Errorf("killed = %q, want the wall-clock ceiling", killed)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("guard did not stop the child promptly")
	}
}

func TestGuardKillsOverMemoryCeiling(t *testing.T) {
	_, killed, _ := runGuarded(exec.Command("sleep", "10"), time.Minute, 1)
	if !strings.Contains(killed, "memory") {
		t.Errorf("killed = %q, want the memory ceiling", killed)
	}
}

func TestGuardPassesOutput(t *testing.T) {
	out, killed, err := runGuarded(exec.Command("echo", "hello"), time.Minute, 1<<20)
	if err != nil || killed != "" || string(out) != "hello\n" {
		t.Errorf("got %q, %q, %v", out, killed, err)
	}
}
