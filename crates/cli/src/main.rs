//! The `hotspot` command-line entry point; see [`hotspot_cli::commands`].

use hotspot_cli::{commands, CliError};

fn main() {
    let mut argv = std::env::args().skip(1);
    let command = match argv.next() {
        Some(c) if c != "--help" && c != "-h" => c,
        _ => {
            eprint!("{}", commands::USAGE);
            std::process::exit(2);
        }
    };
    match commands::run(&command, argv) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("error: {e}");
            // The usage text helps with a bad command line only; after a
            // file, data or detector error it would bury the one line
            // that says what went wrong.
            if matches!(e, CliError::Usage(_)) {
                eprint!("{}", commands::USAGE);
            }
            std::process::exit(1);
        }
    }
}
