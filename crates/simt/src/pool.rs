//! Device leasing for serving workloads.
//!
//! A [`DevicePool`] owns a bounded set of simulated devices and leases them
//! to workers. Leasing amortizes the expensive parts of bringing a device
//! up — above all the ~100 ms context creation (`cudaFree(NULL)`, §IV),
//! which a naive count-per-request server would pay on every call. Devices
//! returned to the pool keep their warm context and are handed out again to
//! the next request for the same [`DeviceConfig`] preset.
//!
//! [`DevicePool::acquire`] hands out the raw [`Device`] together with a
//! [`PoolTicket`]. The device can move into a long-lived structure (the
//! engine's `PreparedGraph` cache keeps preprocessed graphs resident on a
//! device for many counts); the ticket accounts for the pool slot and
//! returns it — with the device via [`PoolTicket::restore`], or without it
//! on drop — when the structure is torn down.
//!
//! `acquire` blocks while the pool is at capacity, which is the pool-level
//! backpressure: a fleet of workers can never hold more devices than the
//! simulated host has.

use std::sync::{Arc, Condvar, Mutex};

use crate::config::DeviceConfig;
use crate::device::Device;

#[derive(Debug)]
struct PoolState {
    /// Devices handed out (tickets not yet returned), counted against
    /// `capacity`.
    outstanding: usize,
    /// Warm devices ready for reuse.
    idle: Vec<Device>,
    /// Devices ever constructed by this pool — each one paid (or will pay)
    /// context bring-up exactly once.
    created: usize,
}

#[derive(Debug)]
struct PoolInner {
    capacity: usize,
    state: Mutex<PoolState>,
    freed: Condvar,
}

/// A bounded pool of simulated devices (see the module docs).
#[derive(Clone, Debug)]
pub struct DevicePool {
    inner: Arc<PoolInner>,
}

impl DevicePool {
    /// An empty pool that will create devices on demand, up to `capacity`
    /// outstanding at once.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "a device pool needs at least one slot");
        DevicePool {
            inner: Arc::new(PoolInner {
                capacity,
                state: Mutex::new(PoolState {
                    outstanding: 0,
                    idle: Vec::new(),
                    created: 0,
                }),
                freed: Condvar::new(),
            }),
        }
    }

    /// Take a device with the given config and the ticket for its slot,
    /// blocking while the pool is at capacity. An idle device with the same
    /// preset name is reused (warm context); otherwise a fresh device is
    /// created.
    pub fn acquire(&self, cfg: &DeviceConfig) -> (Device, PoolTicket) {
        let mut state = self.inner.state.lock().unwrap();
        let device = loop {
            if let Some(i) = state.idle.iter().position(|d| d.config().name == cfg.name) {
                break state.idle.swap_remove(i);
            }
            if state.outstanding + state.idle.len() < self.inner.capacity {
                state.created += 1;
                break Device::new(cfg.clone());
            }
            // At capacity with no matching idle device. If idle devices of a
            // *different* preset exist, retire one to make room; otherwise
            // wait for a ticket to come back.
            if let Some(i) = state.idle.iter().position(|d| d.config().name != cfg.name) {
                state.idle.swap_remove(i);
                continue;
            }
            state = self.inner.freed.wait(state).unwrap();
        };
        state.outstanding += 1;
        let ticket = PoolTicket {
            inner: Arc::clone(&self.inner),
            done: false,
        };
        (device, ticket)
    }

    /// Devices currently handed out.
    pub fn outstanding(&self) -> usize {
        self.inner.state.lock().unwrap().outstanding
    }

    /// Warm devices waiting for reuse.
    pub fn idle(&self) -> usize {
        self.inner.state.lock().unwrap().idle.len()
    }

    /// Total slots.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Devices this pool has ever constructed. Each paid context bring-up
    /// once; `devices_created()` × `context_init_ms` is a serving
    /// deployment's total bring-up cost, however many jobs it runs.
    pub fn devices_created(&self) -> usize {
        self.inner.state.lock().unwrap().created
    }
}

fn release(inner: &PoolInner, device: Option<Device>) {
    let mut state = inner.state.lock().unwrap();
    state.outstanding -= 1;
    if let Some(dev) = device {
        state.idle.push(dev);
    }
    drop(state);
    inner.freed.notify_one();
}

/// The pool slot of an acquired device: returns the slot on drop, and can
/// give the (still warm) device back for reuse via [`PoolTicket::restore`].
#[derive(Debug)]
pub struct PoolTicket {
    inner: Arc<PoolInner>,
    done: bool,
}

impl PoolTicket {
    /// Return the device to the pool's idle set and free the slot.
    pub fn restore(mut self, device: Device) {
        self.done = true;
        release(&self.inner, Some(device));
    }
}

impl Drop for PoolTicket {
    fn drop(&mut self) {
        if !self.done {
            release(&self.inner, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn cfg() -> DeviceConfig {
        DeviceConfig::gtx_980().with_unlimited_memory()
    }

    /// Acquire `cfg` on another thread; the receiver yields the device's
    /// preset name once the acquire returns.
    fn acquire_in_background(pool: &DevicePool, cfg: DeviceConfig) -> mpsc::Receiver<&'static str> {
        let (tx, rx) = mpsc::channel();
        let pool = pool.clone();
        std::thread::spawn(move || {
            let (dev, ticket) = pool.acquire(&cfg);
            tx.send(dev.config().name).unwrap();
            ticket.restore(dev);
        });
        rx
    }

    #[test]
    fn acquire_blocks_at_capacity_until_a_ticket_returns() {
        let pool = DevicePool::new(1);
        let (dev, ticket) = pool.acquire(&cfg());
        assert_eq!(pool.outstanding(), 1);
        let waiter = acquire_in_background(&pool, cfg());
        assert!(
            waiter.recv_timeout(Duration::from_millis(50)).is_err(),
            "pool is exhausted"
        );
        ticket.restore(dev);
        assert_eq!(waiter.recv().unwrap(), "GTX 980");
    }

    #[test]
    fn restored_devices_are_reused_warm() {
        let pool = DevicePool::new(1);
        let (mut dev, ticket) = pool.acquire(&cfg());
        dev.preinit_context();
        ticket.restore(dev);
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.idle(), 1);
        // The returned device is reused with its warm context: a fresh
        // allocation charges no context-init time.
        let (mut again, _ticket) = pool.acquire(&cfg());
        assert_eq!(pool.devices_created(), 1);
        again.reset_clock();
        let _ = again.alloc::<u32>(8).unwrap();
        assert!(again.elapsed() < 1e-3, "warm context must not be re-paid");
    }

    #[test]
    fn dropping_a_ticket_frees_the_slot_without_a_device() {
        let pool = DevicePool::new(1);
        let (device, ticket) = pool.acquire(&cfg());
        drop(device);
        drop(ticket);
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.idle(), 0);
        let (_dev, _ticket) = pool.acquire(&cfg());
        assert_eq!(pool.devices_created(), 2);
    }

    #[test]
    fn mismatched_idle_devices_are_retired_for_new_presets() {
        let pool = DevicePool::new(1);
        let (dev, ticket) = pool.acquire(&cfg());
        ticket.restore(dev);
        assert_eq!(pool.idle(), 1);
        let other = DeviceConfig::tesla_c2050().with_unlimited_memory();
        let (dev, ticket) = pool.acquire(&other);
        assert_eq!(dev.config().name, "Tesla C2050");
        assert_eq!(pool.idle(), 0, "the GTX 980 was retired");
        assert_eq!(pool.devices_created(), 2);
        ticket.restore(dev);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn acquire_unblocks_when_a_ticket_drops() {
        let pool = DevicePool::new(1);
        let (dev, ticket) = pool.acquire(&cfg());
        let waiter = acquire_in_background(&pool, cfg());
        // Give the waiter a moment to park, then free the slot.
        std::thread::sleep(Duration::from_millis(10));
        drop(dev);
        drop(ticket);
        assert_eq!(waiter.recv().unwrap(), "GTX 980");
    }
}
