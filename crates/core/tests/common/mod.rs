//! Test helpers shared by the `ie_core` integration tests.

use ie_core::{ContinueContext, EventContext, ExitChoice, ExitPolicy};

/// Always asks for the shallowest exit and continues whenever the
/// continuation is affordable, so the continuation path and its
/// conditional-refinement draw run on many events (the built-in greedy
/// policy already pays for the deepest affordable exit and rarely
/// continues).
pub struct ShallowThenContinue;

impl ExitPolicy for ShallowThenContinue {
    fn choose_exit(&mut self, _ctx: &EventContext) -> ExitChoice {
        ExitChoice::Exit(0)
    }

    fn choose_continue(&mut self, ctx: &ContinueContext) -> bool {
        ctx.affordable()
    }
}
