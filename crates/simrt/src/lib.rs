//! Deterministic discrete-event simulation runtime.
//!
//! All SimDC subsystems (logical cluster, phone cluster, DeviceFlow, cloud
//! services) execute on one virtual timeline driven by [`Engine`]. A
//! subsystem defines an event type, the composition root defines a
//! [`World`] whose event enum wraps every subsystem's events, and the engine
//! pops events in `(time, insertion order)` order — which makes every run
//! with the same seed byte-for-byte reproducible.
//!
//! # Examples
//!
//! ```
//! use simdc_simrt::{Engine, EngineCtx, World};
//! use simdc_types::SimDuration;
//!
//! struct Ticks { fired: u32 }
//! enum Tick { Once, Chain(u32) }
//!
//! impl World for Ticks {
//!     type Event = Tick;
//!     fn handle(&mut self, ctx: &mut EngineCtx<'_, Tick>, event: Tick) {
//!         self.fired += 1;
//!         if let Tick::Chain(n) = event {
//!             if n > 0 {
//!                 ctx.schedule_in(SimDuration::from_secs(1), Tick::Chain(n - 1));
//!             }
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Ticks { fired: 0 });
//! engine.schedule_in(SimDuration::ZERO, Tick::Chain(3));
//! engine.schedule_in(SimDuration::from_secs(10), Tick::Once);
//! engine.run();
//! assert_eq!(engine.world().fired, 5);
//! assert_eq!(engine.now().as_secs_f64(), 10.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod engine;
pub mod rng;
pub mod series;

pub use engine::{Engine, EngineCtx, EventQueue, World};
pub use rng::{derive_seed, RngStream, SplitMix64};
pub use series::{pearson_correlation, SeriesStats};
