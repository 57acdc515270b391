//! Leader-side logic of GenDPR's three phases.
//!
//! [`maf`], [`ld`] and [`lrtest`] each implement one phase of Algorithm 1,
//! written against *aggregate inputs only* (count vectors, a moments
//! oracle, LR matrices). The attested engine feeds them what arrives over
//! the members' channels; `pooled::Pool` feeds them local
//! [`crate::gdo::GdoNode`]s pooled with the reference panel and is the
//! whole pipeline of the in-process drivers ([`crate::protocol`],
//! [`crate::baseline::naive`], [`crate::dynamic`]). The centralized
//! baseline calls them over its own pooled matrices.

pub mod ld;
pub mod lrtest;
pub mod maf;
pub(crate) mod pooled;
