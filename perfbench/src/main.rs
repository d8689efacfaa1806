//! The untraced benchmark binary: end-to-end metrics with tracing off.

#![forbid(unsafe_code)]

fn main() -> std::process::ExitCode {
    perfbench::main_with(None)
}
