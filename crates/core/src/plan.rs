//! The output of HAP: a distributed plan ready to execute.

use std::collections::HashMap;
use std::time::Duration;

use hap_cluster::VirtualDevice;
use hap_collectives::GroundTruthNet;
use hap_graph::{Graph, NodeId, Tensor};
use hap_simulator::{
    memory_footprint, simulate_time, verify_equivalence, EquivReport, ExecError, MemoryReport,
    SimOptions, SimResult,
};
use hap_synthesis::{DistProgram, ShardingRatios};

/// A complete HAP plan: the synthesized SPMD program plus per-segment
/// sharding ratios, with helpers to inspect, simulate and verify it.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The synthesized distributed program `Q`.
    pub program: DistProgram,
    /// Per-segment, per-device sharding ratios `B`.
    pub ratios: ShardingRatios,
    /// Cost-model estimate of the per-iteration time (seconds).
    pub estimated_time: f64,
    /// The 1-based index of the alternating-optimization round whose plan
    /// was chosen. It is not the number of rounds that ran: later rounds
    /// that found no better plan leave it unchanged (the synthesis
    /// profile's `searches` counts the rounds run, one synthesis each).
    pub rounds: usize,
    /// Wall-clock time spent in the optimization loop.
    pub synthesis_time: Duration,
    /// The virtual devices the plan targets.
    pub devices: Vec<VirtualDevice>,
    /// The (possibly auto-segmented) graph the plan was built for.
    pub graph: Graph,
}

impl Plan {
    /// Number of virtual devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Renders the program as a paper-Fig.-11-style listing.
    pub fn listing(&self) -> String {
        self.program.listing(&self.graph)
    }

    /// Simulates the "actual" per-iteration time on the ground-truth
    /// network model (the reproduction's stand-in for a real run).
    pub fn simulate(&self, net: &GroundTruthNet, opts: &SimOptions) -> SimResult {
        simulate_time(&self.graph, &self.program, &self.devices, net, &self.ratios, opts)
    }

    /// Computes the per-device memory footprint.
    pub fn memory(&self) -> MemoryReport {
        memory_footprint(&self.graph, &self.program, &self.devices, &self.ratios)
    }

    /// Functionally executes the plan on real tensors and compares every
    /// required output with the single-device program.
    pub fn verify(&self, feeds: &HashMap<NodeId, Tensor>) -> Result<EquivReport, ExecError> {
        verify_equivalence(&self.graph, &self.program, feeds, &self.ratios, self.devices.len())
    }
}

#[cfg(test)]
mod tests {
    use crate::{parallelize, HapOptions};
    use hap_cluster::ClusterSpec;
    use hap_collectives::{GroundTruthNet, NetworkParams};
    use hap_graph::{Role, Tensor};
    use hap_models::{mlp, MlpConfig};
    use hap_simulator::SimOptions;
    use std::collections::HashMap;

    #[test]
    fn plan_end_to_end_simulate_memory_verify() {
        let graph = mlp(&MlpConfig { batch: 64, input: 16, hidden: vec![32], classes: 8 });
        let cluster = ClusterSpec::fig17_cluster();
        let plan = parallelize(&graph, &cluster, &HapOptions::default()).unwrap();

        let net = GroundTruthNet::new(NetworkParams::paper_cloud());
        let sim = plan.simulate(&net, &SimOptions::default());
        assert!(sim.iteration_time > 0.0);

        let mem = plan.memory();
        assert!(mem.fits(), "toy model must fit: {:?}", mem.per_device);

        let mut feeds = HashMap::new();
        for n in plan.graph.nodes() {
            match n.role {
                Role::Input | Role::Param => {
                    feeds.insert(n.id, Tensor::randn(n.shape.dims().to_vec(), n.id as u64));
                }
                Role::Label => {
                    let t = Tensor::randn(n.shape.dims().to_vec(), n.id as u64)
                        .map(|v| ((v + 0.5) * 8.0).floor().clamp(0.0, 7.0));
                    feeds.insert(n.id, t);
                }
                _ => {}
            }
        }
        let report = plan.verify(&feeds).unwrap();
        assert!(
            report.max_error < 1e-3,
            "plan must be semantically equivalent, max error {}\n{}",
            report.max_error,
            plan.listing()
        );
    }
}
