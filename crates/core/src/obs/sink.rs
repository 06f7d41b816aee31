//! A process-wide warning sink, so library users can capture or
//! silence the diagnostics the CLI front end and the fleet dispatcher
//! would otherwise print straight to stderr.
//!
//! The default sink preserves the historical behavior exactly (one
//! `eprintln!` line per warning); [`set_warning_sink`] swaps in
//! [`WarningSink::Silent`] or a custom callback.

use std::sync::RwLock;

/// A structured warning emitted by the library.
#[derive(Debug, Clone, PartialEq)]
pub struct Warning {
    /// What was running (e.g. `"cli"`).
    pub what: String,
    /// The rendered warning line, exactly as the stderr sink prints it.
    pub message: String,
}

impl Warning {
    /// A diagnostic from `what`; the stderr sink prints `message`
    /// verbatim.
    pub fn note(what: impl Into<String>, message: impl Into<String>) -> Self {
        Self { what: what.into(), message: message.into() }
    }
}

/// Where library warnings go.
pub enum WarningSink {
    /// Print each warning's message to stderr (the default).
    Stderr,
    /// Drop warnings.
    Silent,
    /// Invoke a callback per warning.
    Custom(Box<dyn Fn(&Warning) + Send + Sync>),
}

impl std::fmt::Debug for WarningSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WarningSink::Stderr => "WarningSink::Stderr",
            WarningSink::Silent => "WarningSink::Silent",
            WarningSink::Custom(_) => "WarningSink::Custom(..)",
        })
    }
}

static SINK: RwLock<WarningSink> = RwLock::new(WarningSink::Stderr);

/// Replaces the process-wide warning sink, returning the previous one.
/// Affects every thread; tests that capture warnings should restore
/// [`WarningSink::Stderr`] afterwards.
pub fn set_warning_sink(sink: WarningSink) -> WarningSink {
    std::mem::replace(&mut SINK.write().expect("warning sink lock never poisons"), sink)
}

/// Routes one warning through the current sink.
pub fn emit_warning(warning: &Warning) {
    match &*SINK.read().expect("warning sink lock never poisons") {
        WarningSink::Stderr => eprintln!("{}", warning.message),
        WarningSink::Silent => {}
        WarningSink::Custom(f) => f(warning),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn custom_sink_captures_and_silent_drops() {
        let seen: Arc<Mutex<Vec<Warning>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        let prev = set_warning_sink(WarningSink::Custom(Box::new(move |w| {
            sink_seen.lock().unwrap().push(w.clone());
        })));
        let w = Warning::note("sync run", "warning: 2/10 sync run trials censored");
        emit_warning(&w);
        set_warning_sink(WarningSink::Silent);
        emit_warning(&w); // dropped
        set_warning_sink(prev);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0], w);
    }
}
