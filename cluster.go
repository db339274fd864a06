package xatu

import (
	"net/netip"

	"github.com/xatu-go/xatu/internal/cluster"
	"github.com/xatu-go/xatu/internal/engine"
)

// The distributed serving layer (internal/cluster): a coordinator plus N
// engine nodes, customers partitioned by a two-level generalization of
// the engine's shard hash, with live customer migration over the subset
// checkpoint stream and federated telemetry.

type (
	// Coordinator is the cluster control plane: membership, the versioned
	// routing table, heartbeat-timeout takeover, deduped alert fan-in and
	// federated /metrics.
	Coordinator = cluster.Coordinator
	// CoordinatorConfig parameterizes a Coordinator.
	CoordinatorConfig = cluster.CoordinatorConfig
	// ClusterNode is the one serving composition: supervised Engine +
	// ingest pipeline + telemetry server wrapped with the cluster control
	// plane, standalone when it has no coordinator (xatu-detect runs one).
	ClusterNode = cluster.Node
	// ClusterNodeConfig parameterizes a ClusterNode.
	ClusterNodeConfig = cluster.NodeConfig
	// ClusterNodeStats snapshots a node's cluster-layer counters.
	ClusterNodeStats = cluster.NodeStats
	// ClusterRouter is the ingest tier's table-following flow fan-out.
	ClusterRouter = cluster.Router
	// ClusterRouterConfig parameterizes a ClusterRouter.
	ClusterRouterConfig = cluster.RouterConfig
	// ClusterTable is one version of the customer→node routing table.
	ClusterTable = cluster.Table
	// ClusterNodeInfo is one node's advertised identity and addresses.
	ClusterNodeInfo = cluster.NodeInfo
	// WireAlert is one alert as fanned in to the coordinator.
	WireAlert = cluster.WireAlert
)

// NewCoordinator builds a coordinator (StartServer serves its HTTP
// control plane).
func NewCoordinator(cfg CoordinatorConfig) *Coordinator { return cluster.NewCoordinator(cfg) }

// StartClusterNode builds one engine node, joins the coordinator (or,
// without one, serves every customer alone), and starts serving.
func StartClusterNode(cfg ClusterNodeConfig) (*ClusterNode, error) { return cluster.StartNode(cfg) }

// StartClusterRouter starts a table-following flow router for the
// ingest tier.
func StartClusterRouter(cfg ClusterRouterConfig) (*ClusterRouter, error) {
	return cluster.StartRouter(cfg)
}

// NodeOf is the two-level customer partition: the node index within a
// fleet of nodes, then the shard index within that node. With a single
// node it degenerates to ShardOf.
func NodeOf(customer netip.Addr, nodes, shards int) (node, shard int) {
	return engine.NodeOf(customer, nodes, shards)
}

// ShardOf is the engine's stable customer→shard hash.
func ShardOf(customer netip.Addr, shards int) int { return engine.ShardOf(customer, shards) }
