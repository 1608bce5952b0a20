//! gts-net: a std-only networking substrate for the gts server.
//!
//! The crate is a readiness-driven reactor built from four sans-I/O
//! pieces, each unit-testable without opening a socket:
//!
//! - [`sys`]: the one FFI seam — `poll(2)` declared directly against
//!   the C library std already links (no `libc` crate dependency).
//! - [`FrameDecoder`] / [`OutboundQueue`]: byte-level framing for the
//!   newline-delimited UTF-8 protocol, with size bounds enforced while
//!   a frame *grows* and write queues that stop cleanly at
//!   `WouldBlock`.
//! - [`TimerWheel`]: coarse hashed-wheel timers for idle timeouts and
//!   drain deadlines, O(1) arm/cancel.
//! - [`WorkerPool`]: where blocking protocol work runs, so the reactor
//!   thread never does.
//!
//! [`run`] ties them together: one thread polls the listener, a
//! self-pipe, and every connection; a [`Service`] implementation
//! supplies the protocol. Responses are sequenced through a
//! per-connection reorder buffer so ordered (v1) and pipelined
//! out-of-order (v2, by request `id`) traffic coexist on the same
//! loop.

pub mod codec;
pub mod pool;
pub mod reactor;
pub mod sys;
pub mod timer;

pub use codec::{CodecError, FrameDecoder, OutboundQueue};
pub use pool::{lock, WorkerPool};
pub use reactor::{run, ConnId, FrameOutput, ReactorConfig, ReactorControl, Service};
pub use timer::{TimerId, TimerWheel};
