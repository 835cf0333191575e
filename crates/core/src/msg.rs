//! RPC wire-format sizes.
//!
//! The two-sided designs ship small request/response messages; their
//! sizes determine NIC occupancy (the coarse-grained design's network
//! efficiency advantage for point queries in Fig. 9 comes from shipping
//! one key and one value instead of whole pages).
//!
//! Every message carries an 8-byte header (opcode, index id, flags).

/// Message header bytes (opcode + index id + flags).
pub const HEADER: usize = 8;
/// One key or value on the wire.
pub const WORD: usize = 8;

/// Point-lookup request: header + key.
pub const fn lookup_req() -> usize {
    HEADER + WORD
}

/// Point-lookup response: header + optional value.
pub const fn lookup_resp() -> usize {
    HEADER + WORD
}

/// Range request: header + lo + hi.
pub const fn range_req() -> usize {
    HEADER + 2 * WORD
}

/// Range response shipping whole qualifying leaf pages (what the paper's
/// coarse-grained implementation transfers: "fine- and coarse-grained
/// need to transfer approx. 1600 pages ... from the leaf level", §6.1).
pub const fn range_resp_pages(pages: usize, page_size: usize) -> usize {
    HEADER + pages * page_size
}

/// Insert request: header + key + value.
pub const fn insert_req() -> usize {
    HEADER + 2 * WORD
}

/// Insert/delete acknowledgement.
pub const fn ack() -> usize {
    HEADER
}

/// Delete request: header + key.
pub const fn delete_req() -> usize {
    HEADER + WORD
}

/// Hybrid traversal response: header + leaf remote pointer (§5.2 — "the
/// RPC only returns the remote pointer to the leaf node").
pub const fn leaf_ptr_resp() -> usize {
    HEADER + WORD
}

/// Hybrid scan-plan response: header + `(high key, leaf pointer)` per
/// leaf one local leaf names for the range.
pub const fn leaf_plan_resp(entries: usize) -> usize {
    HEADER + entries * 2 * WORD
}

/// Hybrid new-leaf registration request: header + start key + remote
/// pointer (§5.2).
pub const fn install_leaf_req() -> usize {
    HEADER + 2 * WORD
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_messages_are_small() {
        assert_eq!(lookup_req(), 16);
        assert_eq!(lookup_resp(), 16);
        assert_eq!(ack(), 8);
    }
}
