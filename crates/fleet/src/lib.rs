//! `margins-fleet` — fleet-scale characterization as a service.
//!
//! The paper characterizes three physical chips by hand; a deployment
//! cares about *fleets*: thousands of chips whose guardbands vary part to
//! part, characterized continuously by a long-running service. This crate
//! is that service, built so the scale-out changes nothing about the
//! results:
//!
//! * [`proto`] — the line-delimited JSON wire protocol
//!   (submit / status / cancel / results / shutdown, plus the
//!   observability kinds: subscribe / unsubscribe / health / metrics and
//!   server-pushed [`FleetEvent`] frames), encoded on
//!   the deterministic `margins-trace` JSON layer and decoded totally:
//!   corrupt or truncated frames and unknown kinds become typed
//!   [`ProtoError`]s, never panics.
//! * [`service`] — the scheduler: a bounded worker pool fed by fair
//!   FIFO-per-client queues, every chip running the stock
//!   `Campaign::run` pipeline against one shared campaign cache, and
//!   every job's stream merged in canonical chip order after the job
//!   completes. Subscribers observe jobs through bounded event queues
//!   with exact drop accounting; observation never perturbs outcomes.
//! * [`daemon`] — the TCP front-end behind `voltmargin serve`.
//!
//! The determinism contract — a fleet run of N chips is byte-identical to
//! N sequential `voltmargin characterize` runs merged in canonical chip
//! order, per-client streams never interleave, and a warm rerun executes
//! zero machine probes — is proven by `tests/fleet_conformance.rs` in the
//! workspace root rather than asserted here.

pub mod daemon;
pub mod proto;
pub mod service;

pub use daemon::{serve, ServeConfig};
pub use proto::{
    FleetEvent, FleetSpec, HealthSnapshot, ProtoError, Request, Response, SpecError, PROTO_VERSION,
};
pub use service::{FleetResults, FleetService, JobOutcome, Subscription};
