fn main() -> std::process::ExitCode {
    sfbench::cli::main(std::env::args().skip(1).collect())
}
