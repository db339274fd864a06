// Package cluster is Xatu's horizontal scale-out layer: a coordinator
// that owns a versioned customer→node routing table, and engine nodes
// that each serve one partition of the customer space with the existing
// supervised Engine + ingest pipeline + telemetry server stack.
//
// Partitioning is the two-level generalization of the engine's stable
// shard hash: engine.NodeOf maps a customer to (node index, shard index)
// so a one-node fleet is bit-identical to a single-process Engine. The
// coordinator's control plane is small HTTP/JSON (join / leave /
// heartbeat / rebalance); every membership change bumps the table
// version, and nodes converge on the newest table via push plus a
// heartbeat version check.
//
// Live migration rides on the transactional XMC1-v2 checkpoint framing:
// when a table change moves customers off a node, the node drains once,
// writes a per-customer-subset checkpoint segment (CheckpointCustomers),
// broadcasts it to the new table's other nodes, and drops the moved
// channels. Destinations filter the segment by their own ownership
// (RestoreCustomers) and buffer incoming steps for gained customers
// until every potential source has reported (or a timeout fires), so no
// step is lost or applied out of order across the handoff.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"sort"
	"time"

	"github.com/xatu-go/xatu/internal/engine"
	"github.com/xatu-go/xatu/internal/netflow"
)

// NodeInfo advertises one engine node's addresses to the fleet.
type NodeInfo struct {
	// ID is the node's stable identity; a node that crashes and rejoins
	// under the same ID reclaims the same partition.
	ID string `json:"id"`
	// API is the node's control-plane address (host:port) serving
	// /v1/table, /v1/steps, and /v1/migrate; empty on a standalone node.
	API string `json:"api"`
	// Ingest is the node's NetFlow v5 UDP listener (host:port).
	Ingest string `json:"ingest"`
	// Metrics is the node's telemetry server (host:port) scraped by the
	// coordinator's federated /metrics.
	Metrics string `json:"metrics"`
}

// Table is the versioned routing state the whole fleet converges on.
// Nodes are sorted by ID, so a given membership set always produces the
// same table — a node that leaves and rejoins gets its old partition
// back, and the state migrates home with it.
type Table struct {
	Version uint64 `json:"version"`
	// Shards is the per-node engine shard count (the second hash level).
	Shards int        `json:"shards"`
	Nodes  []NodeInfo `json:"nodes"`
}

// Owner maps a customer to its owning node and the shard within that
// node's engine. The table must be non-empty.
func (t *Table) Owner(customer netip.Addr) (NodeInfo, int) {
	node, shard := engine.NodeOf(customer, len(t.Nodes), t.Shards)
	return t.Nodes[node], shard
}

// OwnerID is Owner with an empty-table guard; it returns "" when the
// table has no nodes.
func (t *Table) OwnerID(customer netip.Addr) string {
	if t == nil || len(t.Nodes) == 0 {
		return ""
	}
	n, _ := t.Owner(customer)
	return n.ID
}

// validate checks what routing needs of a table before a node installs
// it: at least one shard per node, and a non-empty, unique ID per node.
func (t *Table) validate() error {
	if t.Shards < 1 {
		return fmt.Errorf("cluster: table has %d shards per node", t.Shards)
	}
	seen := make(map[string]bool, len(t.Nodes))
	for _, nd := range t.Nodes {
		if nd.ID == "" || seen[nd.ID] {
			return fmt.Errorf("cluster: table has an empty or repeated node ID %q", nd.ID)
		}
		seen[nd.ID] = true
	}
	return nil
}

func sortNodes(nodes []NodeInfo) {
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
}

// WireAlert is one engine alert flattened for cross-node fan-in. The
// coordinator dedups on (Customer, Type, At): during a migration window
// both the old and new owner of a customer can raise the same detection.
type WireAlert struct {
	Customer string    `json:"customer"`
	Type     int       `json:"type"`
	At       time.Time `json:"at"`
	Severity int       `json:"severity"`
	Node     string    `json:"node"`
	Shard    int       `json:"shard"`
}

// WireStep is one sealed (customer, step) bucket forwarded between nodes
// when the local table says another node owns the customer.
type WireStep struct {
	Customer netip.Addr `json:"customer"`
	At       time.Time  `json:"at"`
	// Hops counts node-to-node forwards; steps bouncing between nodes
	// with divergent table views are dropped after maxHops.
	Hops  int              `json:"hops,omitempty"`
	Flows []netflow.Record `json:"flows"`
	// ack, on a step that is only a flush marker on a forwarder queue, is
	// closed once every step queued before it has been posted.
	ack chan struct{}
}

// maxHops bounds forwarding loops while table versions propagate.
const maxHops = 4

type joinRequest struct {
	Node NodeInfo `json:"node"`
}

type tableResponse struct {
	Table Table `json:"table"`
}

type heartbeatRequest struct {
	ID      string `json:"id"`
	Version uint64 `json:"version"`
}

type heartbeatResponse struct {
	Version uint64 `json:"version"`
}

type alertsRequest struct {
	Alerts []WireAlert `json:"alerts"`
}

type stepsRequest struct {
	Steps []WireStep `json:"steps"`
}

// statusError is a control-plane answer outside 2xx.
type statusError int

func (e statusError) Error() string {
	return fmt.Sprintf("peer returned %d %s", int(e), http.StatusText(int(e)))
}

// call makes one control-plane request to http://addr+path: a GET when in
// is nil, else a POST of in — as is when it is a []byte, else as JSON. A
// 2xx answer's JSON body is decoded into out when out is non-nil.
func call(client *http.Client, addr, path string, in, out any) error {
	url := "http://" + addr + path
	var resp *http.Response
	var err error
	switch in := in.(type) {
	case nil:
		resp, err = client.Get(url)
	case []byte:
		resp, err = client.Post(url, "application/octet-stream", bytes.NewReader(in))
	default:
		body, merr := json.Marshal(in)
		if merr != nil {
			return merr
		}
		resp, err = client.Post(url, "application/json", bytes.NewReader(body))
	}
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return statusError(resp.StatusCode)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// httpServer is a listener-backed http.Server shared by the coordinator
// and node control planes; Addr resolves ":0" binds for advertising.
type httpServer struct {
	ln  net.Listener
	srv *http.Server
}

func serveHTTP(addr string, h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &httpServer{ln: ln, srv: &http.Server{Handler: h}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

func (s *httpServer) Addr() string { return s.ln.Addr().String() }

func (s *httpServer) Close() error { return s.srv.Close() }
