//! Declares the `netio_batched` cfg: the batched syscall backend
//! (`sendmmsg`/`recvmmsg`/`ppoll` in `src/netio.rs`) is
//! compiled only where its hardcoded kernel ABI constants and struct
//! layouts are known-good — mainstream 64-bit Linux.  Everywhere else
//! the portable single-syscall backend is the only one built.

fn main() {
    println!("cargo::rustc-check-cfg=cfg(netio_batched)");
    let os = std::env::var("CARGO_CFG_TARGET_OS").unwrap_or_default();
    let arch = std::env::var("CARGO_CFG_TARGET_ARCH").unwrap_or_default();
    if os == "linux" && (arch == "x86_64" || arch == "aarch64") {
        println!("cargo::rustc-cfg=netio_batched");
    }
}
