package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one mosaicd child process. It binds port 0 and the address is
// read back from its "listening on" log line, so concurrent benchmark runs
// never collide on a port.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}

	mu  sync.Mutex
	log strings.Builder
}

// startDaemon launches mosaicd with the given flags plus -addr 127.0.0.1:0
// and returns once it has logged its address. The caller owns stop.
func startDaemon(ctx context.Context, bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(filepath.Join(bin, "mosaicd"), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout = io.Discard
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mosaicd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log.WriteString(line + "\n")
			d.mu.Unlock()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
		// Wait only after the pipe is drained, as os/exec requires.
		_ = cmd.Wait()
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("mosaicd %v exited before listening:\n%s", args, d.logs())
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, fmt.Errorf("mosaicd %v did not log its address:\n%s", args, d.logs())
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
}

func (d *daemon) logs() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// ready polls /healthz until it answers 200.
func (d *daemon) ready(ctx context.Context, client *http.Client) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("mosaicd exited before it was ready:\n%s", d.logs())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("mosaicd at %s never became ready:\n%s", d.base, d.logs())
		}
	}
}

// drain asks the daemon to shut down cleanly (SIGTERM: finish, persist,
// exit) and kills it if it has not gone within the grace period.
func (d *daemon) drain(grace time.Duration) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(grace):
		d.stop()
	}
}

// stop kills the daemon and waits until it has ended.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
