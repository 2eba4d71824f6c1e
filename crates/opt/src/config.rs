//! Optimizing-compiler configuration.

/// The one switch of a compilation. The inlining budgets are constants of
/// the inliner.
#[derive(Clone, Debug)]
pub struct OptConfig {
    /// Run the post-inline simplification pass.
    pub simplify: bool,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig { simplify: true }
    }
}
