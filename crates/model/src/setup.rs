//! Trial setup shared by the synchronous and asynchronous engine
//! builders: one trial's node IDs, communication graph and port map.

use crate::ids::{IdAssignment, IdSpace};
use crate::ports::{PortBackend, PortMap};
use crate::rng::{derive_seed, rng_from_seed};
use crate::{ModelError, NodeIndex, Topology};

/// The seed stream tag of ID sampling (the engines' other streams sit
/// below it), shared so a seed assigns the same IDs in either engine.
const STREAM_IDS: u64 = u64::MAX - 1;

/// Validates a trial's size and settles its IDs and graph: `ids`, or a
/// quasilinear assignment sampled from `seed`; `topology`, or the
/// `LE_TOPOLOGY` selection.
///
/// # Errors
///
/// Returns [`ModelError`] if `n < 2`, if the default ID universe cannot
/// cover `n` nodes, or if the IDs or the topology do not have `n` nodes.
pub fn ids_and_topology(
    n: usize,
    seed: u64,
    ids: Option<IdAssignment>,
    topology: Option<Topology>,
) -> Result<(IdAssignment, Topology), ModelError> {
    if n < 2 {
        return Err(ModelError::NetworkTooSmall { n });
    }
    let ids = match ids {
        Some(ids) => ids,
        None => {
            let mut id_rng = rng_from_seed(derive_seed(seed, STREAM_IDS));
            IdSpace::quasilinear(n).assign(n, &mut id_rng)?
        }
    };
    if ids.len() != n {
        return Err(ModelError::NodeOutOfRange {
            node: NodeIndex(ids.len()),
            n,
        });
    }
    let topo = topology.unwrap_or_else(|| Topology::from_env(n));
    if topo.n() != n {
        return Err(ModelError::InvalidTopology {
            reason: "topology node count does not match the builder's n",
        });
    }
    Ok((ids, topo))
}

/// Takes the port map for a trial on `topo` and `backend` out of an
/// arena's `slot`: the recycled one (reset in O(touched-state)) when both
/// the topology fingerprint and the resolved backend match, a fresh one
/// otherwise.
///
/// # Errors
///
/// Returns [`ModelError`] if a fresh map cannot be built for `topo`.
pub fn take_ports(
    slot: &mut Option<PortMap>,
    topo: &Topology,
    backend: PortBackend,
) -> Result<PortMap, ModelError> {
    let backend = backend.resolve_for(topo.n(), topo.m());
    match slot.take() {
        Some(mut map)
            if map.topology_fingerprint() == topo.fingerprint() && map.backend() == backend =>
        {
            map.reset();
            Ok(map)
        }
        _ => PortMap::for_topology(topo, backend),
    }
}
