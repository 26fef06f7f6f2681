//! The rule registry.
//!
//! Every rule is a token-pattern judgement over one [`SourceFile`], scoped
//! by path class and crate (see each rule's module doc for its exact scope
//! and the approximation it makes); `unused-pub` also reads a workspace-wide
//! identifier index ([`Usages`]). Rules report raw findings; the engine
//! (`crate::engine`) filters out findings covered by a `LINT: <rule>-ok`
//! annotation and turns malformed or unused annotations into findings of
//! their own, so the escape hatch stays visible and accurate.

use crate::source::SourceFile;

mod float_reduction;
mod forbid_unsafe;
mod hash_iter;
mod no_panic;
mod ordering;
mod rng;
mod unused_pub;
mod wallclock;

pub use float_reduction::FloatReduction;
pub use forbid_unsafe::ForbidUnsafePresent;
pub use hash_iter::NoHashIter;
pub use no_panic::EngineNoPanic;
pub use ordering::OrderingJustified;
pub use rng::RngDiscipline;
pub use unused_pub::{UnusedPub, Usages};
pub use wallclock::NoWallclock;

/// Rule id reserved for the annotation machinery itself (malformed,
/// unknown-rule, or unused `LINT:` comments).
pub const BAD_ANNOTATION: &str = "bad-annotation";

/// One diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id, e.g. `no-hash-iter`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-indexed line.
    pub line: u32,
    /// Human message; states what fired and what the accepted fixes are.
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

/// A contract rule: scoping + token-pattern check over one file.
pub trait Rule {
    /// Stable kebab-case id used in diagnostics and annotations.
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn description(&self) -> &'static str;
    /// Appends raw findings for `file` (annotation filtering happens in the
    /// engine). `usages` indexes the whole workspace's identifiers; it is
    /// `None` when a file is linted on its own.
    fn check(&self, file: &SourceFile, usages: Option<&Usages>, out: &mut Vec<Finding>);
}

/// The full registry, in diagnostic order.
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoHashIter),
        Box::new(OrderingJustified),
        Box::new(NoWallclock),
        Box::new(RngDiscipline),
        Box::new(ForbidUnsafePresent),
        Box::new(EngineNoPanic),
        Box::new(FloatReduction),
        Box::new(UnusedPub),
    ]
}

/// Whether `id` names a registered rule (annotations may also allow
/// `bad-annotation` itself — they may not).
pub fn known_rule(id: &str) -> bool {
    all().iter().any(|r| r.id() == id)
}
