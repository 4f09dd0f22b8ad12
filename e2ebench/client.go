package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/server"
	"github.com/smartgrid-oss/dgfindex/internal/trace"
)

// client speaks the server's public HTTP API over at most two keep-alive
// connections (the machine's two vCPUs bound the generator's share).
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// queryResponse is the subset of POST /query's body the benchmark reads.
type queryResponse struct {
	Rows     [][]any `json:"rows"`
	RowCount int     `json:"row_count"`
	Cached   bool    `json:"cached"`
	WallMs   float64 `json:"wall_ms"`
	Stats    struct {
		AccessPath    string  `json:"access_path"`
		IndexSimSec   float64 `json:"index_sim_sec"`
		DataSimSec    float64 `json:"data_sim_sec"`
		RecordsRead   int64   `json:"records_read"`
		BytesRead     int64   `json:"bytes_read"`
		Splits        int     `json:"splits"`
		GroupsSkipped int64   `json:"groups_skipped"`
	} `json:"stats"`
	Trace *trace.SpanSnapshot `json:"trace"`
}

// post sends one JSON request and decodes a 200 response into out; any
// other status is an error carrying the server's message.
func (c *client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.postBody(ctx, path, body, out)
}

func (c *client) postBody(ctx context.Context, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

func (c *client) do(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// query runs one SQL statement and returns the response and the client's
// round-trip time.
func (c *client) query(ctx context.Context, sql string, traced bool) (*queryResponse, time.Duration, error) {
	in := map[string]any{"sql": sql, "session": "bench"}
	if traced {
		in["trace"] = true
	}
	var out queryResponse
	start := time.Now()
	err := c.post(ctx, "/query", in, &out)
	return &out, time.Since(start), err
}

type loadResponse struct {
	RowsLoaded int    `json:"rows_loaded"`
	Durability string `json:"durability"`
	LSN        uint64 `json:"lsn"`
}

// loadBody encodes one POST /load request. The loader encodes a load
// before it is due, so the client's own encoding stays out of the timing.
func loadBody(table string, rows [][]any) ([]byte, error) {
	return json.Marshal(map[string]any{"table": table, "rows": rows})
}

// load posts one encoded asynchronous (logged, not yet applied) load of n
// rows.
func (c *client) load(ctx context.Context, body []byte, n int) (*loadResponse, error) {
	var out loadResponse
	if err := c.postBody(ctx, "/load", body, &out); err != nil {
		return nil, err
	}
	if out.RowsLoaded != n || out.Durability != "logged" {
		return nil, fmt.Errorf("load acked %d rows as %q, want %d logged", out.RowsLoaded, out.Durability, n)
	}
	return &out, nil
}

// stats reads GET /stats.
func (c *client) stats(ctx context.Context) (*server.Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/stats", nil)
	if err != nil {
		return nil, err
	}
	var out server.Snapshot
	return &out, c.do(req, &out)
}
