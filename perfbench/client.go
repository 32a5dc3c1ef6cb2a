package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"xbc/internal/service/api"
)

// client is one closed-loop benchmark client: a single keep-alive
// connection to one node, speaking only the public HTTP API.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// errEvicted is a 404 on a job: the node does not know the id, because its
// result cache evicted the finished job (or never held it).
var errEvicted = errors.New("unknown or evicted job")

// do sends one request and decodes a JSON answer into out; any non-2xx
// status is an error carrying the server's message.
func (c *client) do(ctx context.Context, method, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("%s %s: %w", method, path, errEvicted)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(b)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

// submit posts one job spec (already encoded).
func (c *client) submit(ctx context.Context, spec []byte) (api.SubmitResponse, error) {
	var sr api.SubmitResponse
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &sr)
	return sr, err
}

// sweep posts one sweep request.
func (c *client) sweep(ctx context.Context, req api.SweepRequest) (api.SweepResponse, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return api.SweepResponse{}, err
	}
	var sr api.SweepResponse
	err = c.do(ctx, http.MethodPost, "/v1/sweeps", b, &sr)
	return sr, err
}

// wait follows the job's NDJSON event stream until a terminal state and
// returns it. It never polls: the server pushes each transition.
func (c *client) wait(ctx context.Context, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return "", fmt.Errorf("events %s: %w", id, errEvicted)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("events %s: %s: %s", id, resp.Status, strings.TrimSpace(string(b)))
	}
	sc := bufio.NewScanner(resp.Body)
	state := ""
	for sc.Scan() {
		var ev api.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", fmt.Errorf("events %s: %w", id, err)
		}
		state = ev.State
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	if !terminal(state) {
		return "", fmt.Errorf("events %s: stream ended in state %q", id, state)
	}
	return state, nil
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "aborted"
}

// job fetches a job's record, result included once terminal.
func (c *client) job(ctx context.Context, id string) (api.Job, error) {
	var j api.Job
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &j)
	return j, err
}

// metrics scrapes /metrics into name -> value, summing labelled series
// of one name.
func (c *client) metrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}
