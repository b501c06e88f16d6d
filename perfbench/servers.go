package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"skimsketch/internal/loadtest"
)

// proc is one running sketchd.
type proc struct {
	cmd     *exec.Cmd
	args    []string
	lines   chan string   // stdout lines, until the address lines are read
	drained chan struct{} // closed once stdout hits EOF
}

// startProc launches sketchd with args. Its stdout is scanned for the
// boot banner; stderr passes through to ours.
func startProc(bin string, args []string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// sketchd must not outlive the benchmark if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sketchd: %w", err)
	}
	// A boot banner is a handful of lines; the buffer lets the scanner
	// run ahead of the reader without blocking sketchd's writes.
	p := &proc{cmd: cmd, args: args, lines: make(chan string, 16), drained: make(chan struct{})}
	go func() {
		defer close(p.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			select {
			case p.lines <- sc.Text():
			default: // nobody is waiting for banner lines any more
			}
		}
		io.Copy(io.Discard, out)
	}()
	return p, nil
}

// awaitAddr returns the first submatch of re in the process's stdout.
func (p *proc) awaitAddr(ctx context.Context, re *regexp.Regexp) (string, error) {
	for {
		select {
		case line := <-p.lines:
			if m := re.FindStringSubmatch(line); m != nil {
				return m[1], nil
			}
		case <-p.drained:
			return "", fmt.Errorf("sketchd %v exited before printing %q", p.args, re)
		case <-ctx.Done():
			return "", fmt.Errorf("sketchd %v: waiting for %q: %w", p.args, re, ctx.Err())
		}
	}
}

// stop asks sketchd to shut down gracefully and waits for it to exit,
// killing it if the drain takes too long.
func (p *proc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is caught by Wait
	done := make(chan error, 1)
	go func() {
		<-p.drained
		done <- p.cmd.Wait()
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill() // Wait below reports the outcome
		err = <-done
	}
	if err != nil {
		return fmt.Errorf("sketchd %v: %w", p.args, err)
	}
	return nil
}

// cpuTicks returns the process's user + system CPU time in clock ticks
// (/proc/<pid>/stat fields 14 and 15).
func (p *proc) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for pid %d", p.cmd.Process.Pid)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat for pid %d", p.cmd.Process.Pid)
	}
	return u + s, nil
}

// peakRSSKiB returns the process's VmHWM.
func (p *proc) peakRSSKiB() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", p.cmd.Process.Pid)
}

// clockTicksPerSec is USER_HZ, fixed at 100 on Linux.
const clockTicksPerSec = 100

var (
	httpAddrRe   = regexp.MustCompile(`listening on (\S+)`)
	streamAddrRe = regexp.MustCompile(`sksp listener on (\S+)`)
)

// deployment is the sketchd process one live run talks to.
type deployment struct {
	proc   *proc
	front  *loadtest.Client
	stream string // SKSP address
}

// deploy launches sketchd with the workload flags, waits until it
// answers /healthz, declares streams F and G and registers COUNT query
// q.
func deploy(ctx context.Context, bin string) (*deployment, error) {
	p, err := startProc(bin, []string{
		"-addr", "127.0.0.1:0", "-listen.stream", "127.0.0.1:0",
		"-tables", strconv.Itoa(tables), "-buckets", strconv.Itoa(buckets),
		"-seed", strconv.FormatUint(sketchSeed, 10), "-ingest.workers", strconv.Itoa(ingestWorkers),
	})
	if err != nil {
		return nil, err
	}
	d := &deployment{proc: p}
	addr, err := p.awaitAddr(ctx, httpAddrRe)
	if err != nil {
		return d, err
	}
	if d.stream, err = p.awaitAddr(ctx, streamAddrRe); err != nil {
		return d, err
	}
	d.front = &loadtest.Client{BaseURL: "http://" + addr, Idem: loadtest.NewIdemSource("")}
	if err := waitHealthy(ctx, d.front.BaseURL); err != nil {
		return d, err
	}
	for _, s := range []string{"F", "G"} {
		if err := d.front.DeclareStream(ctx, s, domain); err != nil {
			return d, err
		}
	}
	return d, d.front.RegisterCountQuery(ctx, "q", "F", "G")
}

// waitHealthy polls /healthz every millisecond until it reports ready.
func waitHealthy(ctx context.Context, base string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy: %w", base, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// nodeStats is the part of /stats the gate and the per-layer metrics
// read.
type nodeStats struct {
	Ingest struct {
		UpdatesApplied int64 `json:"updatesApplied"`
		Rejected       int64 `json:"rejected"`
	} `json:"ingest"`
	AnswerCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"answerCache"`
}

// flushAndStats drains the ingest pipeline, then reads the stats.
func (d *deployment) flushAndStats(ctx context.Context) (nodeStats, error) {
	var st nodeStats
	if err := d.front.Flush(ctx); err != nil {
		return st, err
	}
	err := getJSON(ctx, d.front.BaseURL+"/stats", &st)
	return st, err
}

// finalEstimate reads query q's estimate.
func (d *deployment) finalEstimate(ctx context.Context) (int64, error) {
	var ans struct {
		Estimate int64 `json:"estimate"`
	}
	err := getJSON(ctx, d.front.BaseURL+"/answer?query=q", &ans)
	return ans.Estimate, err
}

func getJSON(ctx context.Context, url string, out any) error {
	body, err := getBytes(ctx, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

func getBytes(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}
