//! Library backing the `hotspot` command-line tool.
//!
//! The CLI stitches the suite together for shell use:
//!
//! ```text
//! hotspot gen     --suite iccad --scale 0.01 --dir data      # synthesise a benchmark
//! hotspot label   --clips data/test.clips                    # run the litho oracle
//! hotspot train   --clips data/train.clips --labels data/train.labels --model m.hsnn
//! hotspot eval    --clips data/test.clips --labels data/test.labels --model m.hsnn
//! hotspot predict --clips data/test.clips --model m.hsnn     # probability per clip
//! ```
//!
//! Clips use the text format of [`hotspot_geometry::io`]; labels are one
//! `0`/`1` per line, aligned with the clip records; models are
//! self-describing binary files ([`model_file`]).

pub mod commands;
pub mod model_file;

use std::error::Error;
use std::fmt;

/// CLI-level errors with operator-friendly messages.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation (unknown command, missing flag).
    Usage(String),
    /// File-level failure.
    Io(std::io::Error),
    /// Clip-format failure.
    ClipFormat(hotspot_geometry::io::ClipIoError),
    /// Training/evaluation failure (including model-file decode errors,
    /// [`hotspot_core::CoreError::Model`]).
    Core(hotspot_core::CoreError),
    /// Input data inconsistency (e.g. label/clip count mismatch).
    Data(String),
    /// The serve daemon replied with a structured error; the payload is
    /// the rendered [`hotspot_core::api::ErrorReply`] line, so scripts
    /// can parse the kind from stderr.
    Server(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::ClipFormat(e) => write!(f, "clip file error: {e}"),
            CliError::Core(e) => write!(f, "detector error: {e}"),
            CliError::Data(msg) => write!(f, "data error: {msg}"),
            CliError::Server(reply) => write!(f, "server error: {reply}"),
        }
    }
}

impl Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<hotspot_geometry::io::ClipIoError> for CliError {
    fn from(e: hotspot_geometry::io::ClipIoError) -> Self {
        CliError::ClipFormat(e)
    }
}

impl From<hotspot_bench::ArgsError> for CliError {
    fn from(e: hotspot_bench::ArgsError) -> Self {
        CliError::Usage(e.to_string())
    }
}

impl From<hotspot_core::CoreError> for CliError {
    fn from(e: hotspot_core::CoreError) -> Self {
        CliError::Core(e)
    }
}
