// Test helper shared by `scc-core`'s wire tests and the root crate's
// corruption sweep (pulled in with `include!`, so the includer brings
// `verify`, `VerifyFailure`, `VerifyReport` and `WireError` into scope).

/// Rewrites the checksum block of serialized segment bytes until every
/// CRC32C matches its section again, using only the public
/// `wire::verify`: each `WireError::Checksum` names its section and the
/// CRC it computed, which goes into that section's slot. Returns the final
/// verdict — `Ok` once every CRC matches, or the first failure no CRC can
/// fix (a structural error behind the checksum).
fn reseal(bytes: &mut [u8]) -> Result<VerifyReport, VerifyFailure> {
    loop {
        let (section, computed) = match verify(bytes) {
            Err(VerifyFailure { error: WireError::Checksum { section, computed, .. }, .. }) => {
                (section, computed)
            }
            verdict => return verdict,
        };
        let slot = match section {
            "header" => 32,
            "entry points" => 36,
            "delta bases" => 40,
            "dictionary" => 44,
            "codes" => 48,
            "exceptions" => 52,
            other => panic!("unknown checksum section {other:?}"),
        };
        bytes[slot..slot + 4].copy_from_slice(&computed.to_le_bytes());
    }
}
