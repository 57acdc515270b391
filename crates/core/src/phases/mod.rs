//! Leader-side logic of GenDPR's three phases.
//!
//! [`maf`], [`ld`] and [`lrtest`] each implement one phase of Algorithm 1,
//! written against *aggregate inputs only* (count vectors, a moments
//! oracle, LR matrices). The crate's leader core (`engine`) drives them
//! for every driver, fed by whichever source answers for the members —
//! the attested channels or in-process [`crate::gdo::GdoNode`]s. The
//! centralized baseline calls them over its own pooled matrices.

pub mod ld;
pub mod lrtest;
pub mod maf;
