package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// runGuarded runs cmd to completion under a wall-clock ceiling and a
// resident-memory ceiling, polling the child's VmRSS. A child over either
// ceiling is killed; killed then names the ceiling, and the caller reports
// the run as failed. It returns the child's standard output.
func runGuarded(cmd *exec.Cmd, wall time.Duration, maxRSSKiB int64) (stdout []byte, killed string, err error) {
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	deadline := time.NewTimer(wall)
	defer deadline.Stop()
	poll := time.NewTicker(50 * time.Millisecond)
	defer poll.Stop()
	kill := func(why string) {
		if killed == "" {
			killed = why
			_ = cmd.Process.Kill() // fails only if the child already exited
		}
	}
	for {
		select {
		case err := <-done:
			return out.Bytes(), killed, err
		case <-deadline.C:
			kill(fmt.Sprintf("killed: over the %v wall-clock ceiling", wall))
		case <-poll.C:
			if rss := rssKiB(cmd.Process.Pid); rss > maxRSSKiB {
				kill(fmt.Sprintf("killed: resident memory %d KiB over the %d KiB ceiling", rss, maxRSSKiB))
			}
		}
	}
}

// rssKiB reads a process's current resident set (VmRSS), or 0 when the
// process is gone.
func rssKiB(pid int) int64 {
	return procStatusKiB(fmt.Sprintf("/proc/%d/status", pid), "VmRSS:")
}

// procStatusKiB reads one "<field> <n> kB" line of a /proc status file.
func procStatusKiB(path, field string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			v, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return v
		}
	}
	return 0
}
