//! The simulated NVMe log device.
//!
//! A sibling of this crate's NIC model: one FIFO queue ([`FifoLink`])
//! models the device's single submission stream, and occupancy is
//! analytic — a flush of `b` bytes holds the device for
//! `fsync_latency + b / write_bandwidth`, reads (recovery replay) for
//! `b / read_bandwidth`. The fixed fsync latency is what group commit
//! amortises: flushing ten coalesced records pays it once, flushing them
//! one-by-one pays it ten times.

use std::cell::Cell;

use simnet::resource::FifoLink;
use simnet::{Sim, SimDur, SimTime};

/// One memory server's log device.
pub struct NvmeDevice {
    link: FifoLink,
    write_bandwidth: f64,
    read_bandwidth: f64,
    fsync_latency: SimDur,
    flushes: Cell<u64>,
}

impl NvmeDevice {
    /// New idle device.
    pub fn new(write_bandwidth: f64, read_bandwidth: f64, fsync_latency: SimDur) -> Self {
        assert!(
            write_bandwidth > 0.0 && read_bandwidth > 0.0,
            "device bandwidth must be positive"
        );
        NvmeDevice {
            link: FifoLink::new(),
            write_bandwidth,
            read_bandwidth,
            fsync_latency,
            flushes: Cell::new(0),
        }
    }

    /// Device occupancy of one durable write (fsync + streaming).
    pub fn write_duration(&self, bytes: u64) -> SimDur {
        self.fsync_latency + SimDur::from_secs_f64(bytes as f64 / self.write_bandwidth)
    }

    /// Device occupancy of a sequential read of `bytes`.
    pub fn read_duration(&self, bytes: u64) -> SimDur {
        SimDur::from_secs_f64(bytes as f64 / self.read_bandwidth)
    }

    /// Reserve one durable write of `bytes` on the device queue; returns
    /// `(start, end)` of the occupancy (the caller sleeps until `end`).
    /// Counts as one device op.
    pub fn reserve_write(&self, now: SimTime, bytes: u64) -> (SimTime, SimTime) {
        self.flushes.set(self.flushes.get() + 1);
        let dur = self.write_duration(bytes);
        let start = self.link.busy_until().max(now);
        let end = self.link.reserve(now, dur);
        (start, end)
    }

    /// Occupy the device for a sequential read of `bytes` (recovery
    /// replay), queueing FIFO behind in-flight writes.
    pub async fn read(&self, sim: &Sim, bytes: u64) {
        self.link.acquire(sim, self.read_duration(bytes)).await;
    }

    /// Durable write operations issued so far (the group-commit metric:
    /// one per flush, however many records the flush coalesced).
    pub fn flushes(&self) -> u64 {
        self.flushes.get()
    }

    /// Total virtual time the device has been occupied.
    pub fn busy_time(&self) -> SimDur {
        self.link.busy_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_duration_includes_fsync_floor() {
        let dev = NvmeDevice::new(2e9, 4e9, SimDur::from_micros(10));
        // An empty flush still pays the fsync.
        assert_eq!(dev.write_duration(0), SimDur::from_micros(10));
        // 2 MB at 2 GB/s = 1 ms of streaming on top.
        assert_eq!(
            dev.write_duration(2_000_000),
            SimDur::from_micros(10) + SimDur::from_millis(1)
        );
        // Reads skip the fsync.
        assert_eq!(dev.read_duration(4_000_000), SimDur::from_millis(1));
    }

    #[test]
    fn writes_queue_fifo() {
        let dev = NvmeDevice::new(1e9, 1e9, SimDur::from_micros(1));
        let (s1, e1) = dev.reserve_write(SimTime::ZERO, 1_000);
        let (s2, e2) = dev.reserve_write(SimTime::ZERO, 1_000);
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(e1.as_micros(), 2); // 1us fsync + 1us stream
        assert_eq!(s2, e1);
        assert_eq!(e2.as_micros(), 4);
        assert_eq!(dev.flushes(), 2);
    }
}
