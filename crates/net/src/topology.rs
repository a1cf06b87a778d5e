//! Network endpoints and routes under host-side IP forwarding.
//!
//! The physical topology (Fig. 5) is a star: every node has one serial
//! line to the host. The host is both the external source/destination and
//! the IP-forwarding hub, so a node-to-node transfer occupies *two* serial
//! lines (sender→host and host→receiver) for the duration of the transfer
//! (forwarding is cut-through at the IP packet level, so the end-to-end
//! latency is still a single transfer time, as the paper's Fig. 3 timing
//! budget assumes).

use dles_sim::Endpoint;

/// The serial lines a transfer occupies: link `i` is node `i`'s line to
/// the host. At most two, so a route is stored inline and planning a
/// transfer never allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// The first `len` entries are the occupied links. The rest is zero,
    /// so the derived equality compares only the links.
    links: [usize; 2],
    len: usize,
}

impl Route {
    /// Compute the route between two endpoints. Panics on a self-route —
    /// a node never sends to itself (the rotation technique exists
    /// precisely to replace such a send with local reconfiguration).
    pub fn between(from: Endpoint, to: Endpoint) -> Route {
        match (from, to) {
            (Endpoint::Host, Endpoint::Node(i)) | (Endpoint::Node(i), Endpoint::Host) => Route {
                links: [i, 0],
                len: 1,
            },
            (Endpoint::Node(a), Endpoint::Node(b)) => {
                assert_ne!(a, b, "self-route requested for node {a}");
                Route {
                    links: [a, b],
                    len: 2,
                }
            }
            (Endpoint::Host, Endpoint::Host) => panic!("self-route requested for host"),
        }
    }

    /// Indices of the serial lines this route occupies.
    pub(crate) fn links(&self) -> &[usize] {
        &self.links[..self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_node_routes_use_one_link() {
        let r = Route::between(Endpoint::Host, Endpoint::Node(0));
        assert_eq!(r.links(), &[0]);
        let r = Route::between(Endpoint::Node(2), Endpoint::Host);
        assert_eq!(r.links(), &[2]);
    }

    #[test]
    fn node_node_routes_are_forwarded() {
        let r = Route::between(Endpoint::Node(0), Endpoint::Node(1));
        assert_eq!(r.links(), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "self-route")]
    fn self_route_rejected() {
        let _ = Route::between(Endpoint::Node(1), Endpoint::Node(1));
    }

    #[test]
    fn endpoint_display_is_one_based() {
        assert_eq!(format!("{}", Endpoint::Node(0)), "node1");
        assert_eq!(format!("{}", Endpoint::Host), "host");
        let wire = dles_sim::Component::Wire(Endpoint::Host, Endpoint::Node(1));
        assert_eq!(wire.to_string(), "host->node2");
    }
}
