//! The `mcpath` command-line tool.
//!
//! ```text
//! mcpath analyze s1423.bench
//! mcpath hazard  s1423.bench --quiet
//! mcpath kcycle  s1423.bench --max-k 6
//! mcpath gen m5378 > m5378.bench
//! ```
//!
//! See [`mcpath::cli`] for the full option set.

fn main() {
    let cmd = match mcpath::cli::parse_args(std::env::args().skip(1)) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", mcpath::cli::usage());
            std::process::exit(2);
        }
    };
    match mcpath::cli::run(&cmd) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
