package cluster

import (
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/xatu-go/xatu/internal/netflow"
)

// RouterConfig parameterizes an ingest-tier Router.
type RouterConfig struct {
	// Coordinator is the coordinator control-plane address (host:port).
	Coordinator string
	// Refresh is the table poll period. Zero = 500ms.
	Refresh time.Duration
	// Sampling / MaxPending / BootTime configure each per-node NetFlow
	// exporter (see netflow.ExporterConfig). BootTime enables event-time
	// replay of historical records.
	Sampling   uint16
	MaxPending int
	BootTime   time.Time
	// HTTPClient fetches the table. Nil = a 2s-timeout client.
	HTTPClient *http.Client
	// TraceSample, when positive, stamps sampled batches with the XTR1
	// trace trailer on every per-node exporter (see
	// netflow.ExporterConfig.TraceSample). Must match the fleet's rate.
	TraceSample int
	// Dial opens the flow socket to one node's ingest address; nil dials
	// UDP. Tests inject loss or latency here.
	Dial func(addr string) (net.Conn, error)
	// Logf receives operational log lines. Nil = discard.
	Logf func(format string, args ...any)
}

// routeExporter is one node's flow socket plus the ingest address it was
// dialed for (a node rejoining on a new port needs a fresh exporter).
type routeExporter struct {
	addr string
	exp  *netflow.Exporter
}

// Router is the ingest tier's table-following flow fan-out: records
// route to the owning node's NetFlow listener per the coordinator's
// current table, over one stateful exporter per node (sequence numbers
// stay per-path, so each node's decode tier tracks loss per router).
type Router struct {
	cfg    RouterConfig
	client *http.Client

	mu    sync.Mutex
	table *Table
	exps  map[string]*routeExporter

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// StartRouter fetches the initial table (retrying briefly) and starts
// the refresh loop.
func StartRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Coordinator == "" {
		return nil, errors.New("cluster: router needs a coordinator address")
	}
	if cfg.Refresh <= 0 {
		cfg.Refresh = 500 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	r := &Router{
		cfg:    cfg,
		client: cfg.HTTPClient,
		exps:   make(map[string]*routeExporter),
		stop:   make(chan struct{}),
	}
	if r.client == nil {
		r.client = &http.Client{Timeout: 2 * time.Second}
	}
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		if err = r.refresh(); err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		return nil, err
	}
	r.wg.Add(1)
	go r.refreshLoop()
	return r, nil
}

func (r *Router) refreshLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.Refresh)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			if err := r.refresh(); err != nil {
				r.cfg.Logf("cluster: router refresh: %v", err)
			}
		}
	}
}

// refresh pulls the coordinator's table and installs it if newer,
// retiring exporters whose node left or moved its ingest listener.
func (r *Router) refresh() error {
	var tr tableResponse
	if err := call(r.client, r.cfg.Coordinator, "/v1/table", nil, &tr); err != nil {
		return err
	}
	t := tr.Table
	if err := t.validate(); err != nil {
		return err
	}
	var retired []*routeExporter
	r.mu.Lock()
	if r.table == nil || t.Version > r.table.Version {
		r.table = &t
		ingestAddr := make(map[string]string, len(t.Nodes))
		for _, n := range t.Nodes {
			ingestAddr[n.ID] = n.Ingest
		}
		for id, re := range r.exps {
			if ingestAddr[id] != re.addr {
				retired = append(retired, re)
				delete(r.exps, id)
			}
		}
	}
	r.mu.Unlock()
	for _, re := range retired {
		_ = re.exp.Flush()
		_ = re.exp.Close()
	}
	return nil
}

// TableVersion returns the router's applied table version.
func (r *Router) TableVersion() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.table == nil {
		return 0
	}
	return r.table.Version
}

// Export routes one flow record to the node owning its destination.
func (r *Router) Export(rec netflow.Record) error {
	r.mu.Lock()
	t := r.table
	if t == nil || len(t.Nodes) == 0 {
		r.mu.Unlock()
		return errors.New("cluster: router has no nodes")
	}
	owner, _ := t.Owner(rec.Dst)
	re, ok := r.exps[owner.ID]
	if !ok {
		exp, err := r.newExporter(owner.Ingest)
		if err != nil {
			r.mu.Unlock()
			return err
		}
		re = &routeExporter{addr: owner.Ingest, exp: exp}
		r.exps[owner.ID] = re
	}
	r.mu.Unlock()
	return re.exp.Export(rec)
}

func (r *Router) newExporter(addr string) (*netflow.Exporter, error) {
	cfg := netflow.ExporterConfig{
		Addr:        addr,
		Sampling:    r.cfg.Sampling,
		MaxPending:  r.cfg.MaxPending,
		BootTime:    r.cfg.BootTime,
		TraceSample: r.cfg.TraceSample,
	}
	if r.cfg.Dial != nil {
		dial := r.cfg.Dial
		cfg.Dial = func() (net.Conn, error) { return dial(addr) }
	}
	return netflow.NewExporterWithConfig(cfg)
}

// Flush pushes every exporter's pending records out.
func (r *Router) Flush() error {
	r.mu.Lock()
	exps := make([]*routeExporter, 0, len(r.exps))
	for _, re := range r.exps {
		exps = append(exps, re)
	}
	r.mu.Unlock()
	var first error
	for _, re := range exps {
		if err := re.exp.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close stops the refresh loop and flushes + closes every exporter.
func (r *Router) Close() error {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
	r.mu.Lock()
	exps := r.exps
	r.exps = make(map[string]*routeExporter)
	r.mu.Unlock()
	var first error
	for _, re := range exps {
		_ = re.exp.Flush()
		if err := re.exp.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
