package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one spawned program of the remote workload: its stdout line
// protocol, its stderr captured to a file in the run's directory.
type proc struct {
	name  string
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan string
	log   string
	done  chan struct{}
}

func startProc(name, path, workDir string, args ...string) (*proc, error) {
	logPath := filepath.Join(workDir, name+".log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(path, args...)
	// Flight-recorder dumps, if any, stay inside the run's directory.
	cmd.Env = append(os.Environ(), "STRATA_FLIGHTREC_DIR="+workDir)
	cmd.Stderr = logFile
	stdin, err := cmd.StdinPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, stdin: stdin, lines: make(chan string, 64), log: logPath, done: make(chan struct{})}
	// The reader drops protocol lines nobody waits for rather than block
	// the child: the protocol lines are few, and each is expected once.
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case p.lines <- sc.Text():
			default:
			}
		}
		close(p.lines)
	}()
	go func() {
		<-readDone
		_ = cmd.Wait()
		logFile.Close()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// expect waits for a stdout line starting with prefix and returns the rest.
func (p *proc) expect(prefix string, timeout time.Duration) (string, error) {
	deadline := time.After(timeout)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				return "", fmt.Errorf("%s exited before %q (log %s)", p.name, prefix, p.log)
			}
			if rest, found := strings.CutPrefix(line, prefix); found {
				return strings.TrimSpace(rest), nil
			}
		case <-deadline:
			return "", fmt.Errorf("%s: no %q within %v (log %s)", p.name, prefix, timeout, p.log)
		}
	}
}

// stop closes stdin and sends SIGTERM (the two exit signals of the
// repository's binaries), waits up to timeout, then kills, and in every
// case waits for the process to end.
func (p *proc) stop(timeout time.Duration) {
	_ = p.stdin.Close()
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(timeout):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// freeAddr returns a loopback address with a port free at the time of the
// call.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// promSample is a scraped Prometheus exposition, summed over label sets:
// the benchmark only needs process-wide totals.
type promSample map[string]float64

func scrape(addr string) (promSample, error) {
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", addr, resp.Status)
	}
	out := promSample{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// waitHTTP polls url until it answers 200 or timeout passes.
func waitHTTP(url string, timeout time.Duration) error {
	c := http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := c.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within %v", url, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
