package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"cloudgraph/internal/analytics"
)

// client speaks the analytics line protocol with pre-encoded frames, so
// no encoding cost lands inside a timed region.
type client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// errResponse is an ERR line from the daemon: an operation it refused.
type errResponse struct{ msg string }

func (e *errResponse) Error() string { return "daemon answered ERR " + e.msg }

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, r: bufio.NewReaderSize(conn, 64<<10), w: bufio.NewWriterSize(conn, 256<<10)}, nil
}

func (c *client) close() error {
	_, werr := c.w.WriteString("QUIT\n")
	if werr == nil {
		werr = c.w.Flush()
	}
	if err := c.conn.Close(); werr == nil {
		werr = err
	}
	return werr
}

// writeIngest writes one INGEST batch and flushes it, without waiting for
// the answer.
func (c *client) writeIngest(s *stream, b batchRef) error {
	header := "INGEST " + strconv.Itoa(b.n) + "\n"
	if s.tagged {
		header = "INGEST " + strconv.Itoa(b.n) + " T\n"
	}
	if _, err := c.w.WriteString(header); err != nil {
		return err
	}
	if _, err := c.w.Write(s.frames[b.off:b.end]); err != nil {
		return err
	}
	return c.w.Flush()
}

// readLine reads one response line; ERR lines become *errResponse.
func (c *client) readLine() (string, error) {
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	line = strings.TrimSpace(line)
	if msg, ok := strings.CutPrefix(line, "ERR "); ok {
		return "", &errResponse{msg: msg}
	}
	return line, nil
}

// readOK reads an INGEST answer and checks it acknowledges n records.
func (c *client) readOK(n int) error {
	line, err := c.readLine()
	if err != nil {
		return err
	}
	if line != "OK "+strconv.Itoa(n) {
		return fmt.Errorf("INGEST of %d records answered %q", n, line)
	}
	return nil
}

// command sends one command line and returns its one-line answer.
func (c *client) command(cmd string) (string, error) {
	if _, err := c.w.WriteString(cmd + "\n"); err != nil {
		return "", err
	}
	if err := c.w.Flush(); err != nil {
		return "", err
	}
	return c.readLine()
}

// query sends QUERY and decodes the answer.
func (c *client) query(runner, selector string) (analytics.QueryResult, error) {
	var res analytics.QueryResult
	line, err := c.command("QUERY " + runner + " " + selector)
	if err != nil {
		return res, err
	}
	return res, json.Unmarshal([]byte(line), &res)
}

// flushTenant switches the session to tenant and flushes its pipeline.
func (c *client) flushTenant(tenant string) error {
	if _, err := c.command("TENANT " + tenant); err != nil {
		return err
	}
	_, err := c.command("FLUSH")
	return err
}
