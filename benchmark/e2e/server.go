package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"probprune/benchmark/ops"
)

// opTimeout fails an op whose reply does not complete in time.
const opTimeout = 10 * time.Second

// server is one spawned udbserver process.
type server struct {
	cmd  *exec.Cmd
	addr string

	mu   sync.Mutex
	tail []string // last stderr lines, for diagnostics
	done chan struct{}
}

// startServer spawns the binary and waits for its "listening on" line,
// which is the only readiness signal the CLI gives.
func startServer(bin string, args ...string) (*server, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	ready := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			if s.tail = append(s.tail, line); len(s.tail) > 20 {
				s.tail = s.tail[1:]
			}
			s.mu.Unlock()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case ready <- addr:
				default:
				}
			}
		}
	}()
	select {
	case s.addr = <-ready:
		return s, nil
	case <-s.done:
		s.kill()
		return nil, fmt.Errorf("%s exited before listening:\n%s", bin, s.stderrTail())
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("%s not listening after 60s:\n%s", bin, s.stderrTail())
	}
}

func (s *server) stderrTail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, "\n")
}

// kill is SIGKILL and a wait: every server this harness starts ends
// this way, which for the durable workload is the crash under test.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
	s.cmd.Wait()
}

// cpuMs is the process's utime+stime. /proc reports USER_HZ ticks,
// which Linux fixes at 100 per second for every architecture.
func (s *server) cpuMs() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the line, so the 12th and 13th after it.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) * 10
}

// hwmMB is the process's peak resident set (VmHWM).
func (s *server) hwmMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// client is one protocol connection: pre-encoded requests out, skimmed
// frames in.
type client struct {
	nc net.Conn
	sk *ops.Skimmer
}

func dial(addr string) (*client, error) {
	nc, err := net.DialTimeout("tcp", addr, opTimeout)
	if err != nil {
		return nil, err
	}
	return &client{nc: nc, sk: ops.NewSkimmer(nc)}, nil
}

func (c *client) close() { c.nc.Close() }

// do sends one pre-encoded request and consumes its reply.
func (c *client) do(req []byte, keep bool) (ops.Reply, error) {
	c.nc.SetDeadline(time.Now().Add(opTimeout))
	if _, err := c.nc.Write(req); err != nil {
		return ops.Reply{}, err
	}
	return c.sk.Next(keep)
}

// call runs one command and decodes its reply; an error reply is an
// error.
func (c *client) call(args ...string) (ops.Value, error) {
	rep, err := c.do(ops.CommandStr(nil, args...), true)
	if err != nil {
		return ops.Value{}, err
	}
	return decodeReply(rep)
}

func decodeReply(rep ops.Reply) (ops.Value, error) {
	v, _, err := ops.Decode(rep.Raw)
	if err != nil {
		return ops.Value{}, err
	}
	if v.Type == ops.TError {
		return ops.Value{}, fmt.Errorf("server replied -%s", v.Str)
	}
	return v, nil
}

func (c *client) stats() (map[string]int64, error) {
	v, err := c.call("STATS")
	if err != nil {
		return nil, err
	}
	return ops.Stats(v)
}

// version is the store's mutation epoch.
func (c *client) version() (int64, error) {
	v, err := c.call("VERSION")
	if err != nil {
		return 0, err
	}
	if len(v.Elems) == 0 {
		return 0, errors.New("VERSION reply is empty")
	}
	return v.Elems[0].Int, nil
}

// pipelineChunk bounds how many requests are written before their
// replies are read, so neither side's socket buffer fills.
const pipelineChunk = 256

// getObjects fetches the raw payloads of ids with pipelined GETs.
func (c *client) getObjects(ids []int) ([][]byte, error) {
	out := make([][]byte, 0, len(ids))
	var req []byte
	for len(ids) > 0 {
		n := min(len(ids), pipelineChunk)
		req = req[:0]
		for _, id := range ids[:n] {
			req = ops.CommandStr(req, "GET", strconv.Itoa(id))
		}
		c.nc.SetDeadline(time.Now().Add(opTimeout))
		if _, err := c.nc.Write(req); err != nil {
			return nil, err
		}
		for _, id := range ids[:n] {
			rep, err := c.sk.Next(true)
			if err != nil {
				return nil, err
			}
			v, err := decodeReply(rep)
			if err != nil {
				return nil, err
			}
			if v.Type != ops.TBulk || v.Null {
				return nil, fmt.Errorf("GET %d: no such object", id)
			}
			out = append(out, bytes.Clone(v.Str))
		}
		ids = ids[n:]
	}
	return out, nil
}

// fetchDB reads the whole database back over the wire: the harness
// learns object positions the way any client would.
func (c *client) fetchDB(n int) ([]ops.Object, error) {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	raw, err := c.getObjects(ids)
	if err != nil {
		return nil, err
	}
	db := make([]ops.Object, n)
	for i, b := range raw {
		if db[i], err = ops.ParseObject(b); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// runTool runs a helper binary to completion and returns its stdout.
func runTool(bin string, args ...string) ([]byte, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w\n%s", bin, err, errb.String())
	}
	return out.Bytes(), nil
}
