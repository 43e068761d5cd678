#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! TweetGen — the paper's custom tweet generator (§5.7, Experimental Setup).
//!
//! "TweetGen runs as a standalone process and can be configured to output
//! synthetic but meaningful tweets (in JSON format). TweetGen allows
//! configuring the pattern for data generation with a predefined rate of
//! generation of tweets (tweets/sec or twps) and respective time intervals.
//! TweetGen listens for a request for data at a pre-determined port ...
//! Initiating the generation and the flow of data requires an initial
//! handshake (by an interested receiver) subsequent to which data is
//! 'pushed' to the receiver at a constant rate."
//!
//! This crate reproduces all of that in-process:
//!
//! * [`pattern`] — the XML *pattern descriptor* (Listing 5.13): cycles of
//!   `(rate, duration)` intervals, repeated N times;
//! * [`gen`] — deterministic synthetic tweet content (seeded RNG, hashtags
//!   drawn from a topic pool, `Tweet`-shaped JSON);
//! * [`source`] — a TweetGen *instance* bound to a socket-style address on
//!   the in-process socket ([`asterix_common::socket`]). Generation starts
//!   when the first reader attaches (the handshake); tweets are then pushed
//!   at the pattern's rate into the socket's bounded buffer, each stamped
//!   with its generation instant. Push-based: the instance keeps generating
//!   at its configured rate regardless of how fast the reader drains.

pub mod gen;
pub mod pattern;
pub mod source;

pub use gen::TweetFactory;
pub use pattern::{Interval, PatternDescriptor};
pub use source::{TweetGen, TweetGenConfig};
