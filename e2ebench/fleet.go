package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/cluster"
	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/server"
	"github.com/smartgrid-oss/dgfindex/internal/shard"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/workload"
)

// Fleet shape and storage parameters every workload shares.
const (
	numShards   = 4
	numReplicas = 2
	blockSize   = 2 << 20
	fsyncPolicy = "interval" // server.Config's default, stated in the output
	// userCell is the DGFIndex userId interval; query bounds avoid its
	// multiples so every range has boundary cells.
	userCell = 100
)

const meterDDL = `CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp, powerConsumed double,
	pate1 double, pate2 double, pate3 double, pate4 double) STORED AS RCFILE`

const userInfoDDL = `CREATE TABLE userInfo (userId bigint, userName string, regionId bigint, address string)`

const indexDDL = `CREATE INDEX idx ON TABLE meterdata(regionId, userId, ts) AS 'dgf'
	IDXPROPERTIES ('regionId'='1_1', 'userId'='1_100', 'ts'='2012-12-01_1d',
	'precompute'='sum(powerConsumed);count(*)')`

// meterConfig is the dataset every workload runs on: users × 30 days × one
// reading, four extra metric columns, generated from the run's seed.
func meterConfig(users int, seed int64) workload.MeterConfig {
	cfg := workload.DefaultMeterConfig()
	cfg.Users = users
	cfg.Days = 30
	cfg.ReadingsPerDay = 1
	cfg.OtherMetrics = 4
	cfg.Seed = seed
	return cfg
}

func newWarehouse() *hive.Warehouse {
	return hive.NewWarehouse(dfs.New(blockSize), cluster.Default(), "/warehouse")
}

// fleet is one served 4×2 WAL fleet: the router, the server in front of it
// (optionally through the timing decorator) and its loopback HTTP listener.
type fleet struct {
	router *shard.Router
	srv    *server.Server
	tb     *timingBackend // nil unless the run is traced or delayed
	hs     *http.Server
	url    string
	walDir string
	served chan error
}

// setupFleet generates the dataset, loads and indexes it on a fresh fleet,
// enables the WAL through server.Config and starts serving on loopback. The
// returned rows are the generated meter rows (the reference evaluator's
// input).
func setupFleet(cfg workload.MeterConfig, walDir string, tb *timingBackend) (*fleet, []storage.Row, error) {
	rows := cfg.AllRows()
	router, err := shard.New(shard.Config{Shards: numShards, Replicas: numReplicas, Key: "userId"},
		func(int, int) *hive.Warehouse { return newWarehouse() })
	if err != nil {
		return nil, nil, err
	}
	for _, step := range []func() error{
		func() error { _, err := router.Exec(meterDDL); return err },
		func() error { return router.LoadRowsByName("meterdata", rows) },
		func() error { _, err := router.Exec(userInfoDDL); return err },
		func() error { return router.LoadRowsByName("userInfo", cfg.UserInfoRows()) },
		func() error { _, err := router.Exec(indexDDL); return err },
	} {
		if err := step(); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
	}
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, nil, err
	}
	var be server.Backend = router
	if tb != nil {
		tb.Router = router
		be = tb
	}
	srv := server.NewWithBackend(be, server.Config{WALDir: walDir, FsyncPolicy: fsyncPolicy})
	if err := srv.WALError(); err != nil {
		return nil, nil, fmt.Errorf("setup: enable WAL: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	f := &fleet{
		router: router,
		srv:    srv,
		tb:     tb,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		walDir: walDir,
		served: make(chan error, 1),
	}
	go func() { f.served <- f.hs.Serve(ln) }()
	return f, rows, nil
}

// close stops the HTTP listener, drains and closes the server (which drains
// and closes the WAL), waits for the serve goroutine and removes the logs.
func (f *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := []error{f.hs.Shutdown(ctx)}
	if err := <-f.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	errs = append(errs, f.srv.Close(ctx), os.RemoveAll(f.walDir))
	return errors.Join(errs...)
}

// storedBytes sums one copy of the fleet's stored state: every shard's base
// data (meterdata and userInfo) plus its DGF key-value index, read on
// replica 0. It also returns the index bytes alone.
func (f *fleet) storedBytes() (total, index int64, err error) {
	for si := 0; si < numShards; si++ {
		w := f.router.Replica(si, 0)
		for _, name := range []string{"meterdata", "userInfo"} {
			t, err := w.Table(name)
			if err != nil {
				return 0, 0, err
			}
			total += w.TableSizeBytes(t)
			if t.Dgf != nil {
				index += t.Dgf.SizeBytes()
			}
		}
	}
	return total + index, index, nil
}
