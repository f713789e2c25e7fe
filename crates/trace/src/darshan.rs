//! Darshan-style heatmap ingestion.
//!
//! FTIO also works on profiles produced by other tools (paper §II-A and the
//! Nek5000 case study in §III-B): a Darshan DXT/heatmap profile reports the
//! transferred volume per *time bin* rather than individual requests. FTIO
//! "extracts the heatmap from the Darshan profile and automatically sets the
//! sampling frequency to the bin widths" — the same behaviour is reproduced
//! here: a [`Heatmap`] converts directly into an evenly-sampled bandwidth
//! signal whose sampling frequency is `1 / bin_width`.

use crate::app_trace::AppTrace;
use crate::errors::{TraceError, TraceResult};
use crate::request::IoRequest;

/// A binned I/O volume profile (one row of a Darshan heatmap, aggregated over
/// ranks): `bins[i]` is the number of bytes transferred during
/// `[start + i*bin_width, start + (i+1)*bin_width)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Heatmap {
    /// Time of the first bin's left edge, in seconds.
    pub start: f64,
    /// Width of each bin in seconds.
    pub bin_width: f64,
    /// Transferred bytes per bin.
    pub bins: Vec<f64>,
}

impl Heatmap {
    /// Creates a heatmap.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is not strictly positive.
    pub fn new(start: f64, bin_width: f64, bins: Vec<f64>) -> Self {
        assert!(
            bin_width.is_finite() && bin_width > 0.0,
            "bin width must be positive"
        );
        Heatmap {
            start,
            bin_width,
            bins,
        }
    }

    /// Fallible constructor: rejects non-positive or non-finite bin widths and
    /// non-finite start times instead of panicking — the ingestion paths use
    /// this so corrupt profiles become [`TraceError`]s, not aborts.
    pub fn try_new(start: f64, bin_width: f64, bins: Vec<f64>) -> TraceResult<Self> {
        if !(bin_width.is_finite() && bin_width > 0.0) {
            return Err(TraceError::invalid(
                "bin_width",
                format!("must be positive and finite, got {bin_width}"),
            ));
        }
        if !start.is_finite() {
            return Err(TraceError::invalid(
                "start",
                format!("must be finite, got {start}"),
            ));
        }
        Ok(Heatmap {
            start,
            bin_width,
            bins,
        })
    }

    /// Builds a heatmap by binning an application trace. Each request's volume
    /// is spread uniformly over its duration, so a request spanning several
    /// bins contributes proportionally to each.
    pub fn from_trace(trace: &AppTrace, bin_width: f64) -> Self {
        assert!(bin_width > 0.0, "bin width must be positive");
        let start = trace.start_time();
        let duration = trace.duration();
        let num_bins = if duration <= 0.0 {
            1
        } else {
            (duration / bin_width).ceil() as usize
        };
        let mut bins = vec![0.0; num_bins.max(1)];
        for r in trace.requests() {
            spread_volume(&mut bins, start, bin_width, r);
        }
        Heatmap {
            start,
            bin_width,
            bins,
        }
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// Whether the heatmap has no bins.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Total volume in bytes.
    pub fn total_volume(&self) -> f64 {
        self.bins.iter().sum()
    }

    /// Total covered duration in seconds: `0.0` for an empty heatmap, exactly
    /// `bin_width` for a single-bin heatmap.
    pub fn duration(&self) -> f64 {
        self.bins.len() as f64 * self.bin_width
    }

    /// The sampling frequency FTIO derives from the heatmap, `1 / bin_width`,
    /// or an error when the bin width is zero, negative or non-finite (only
    /// possible for heatmaps assembled through the public fields — every
    /// constructor and reader rejects such widths). A single-bin heatmap has a
    /// perfectly valid sampling frequency; its *spectrum* just carries no
    /// non-DC information.
    pub fn try_sampling_freq(&self) -> TraceResult<f64> {
        if self.bin_width.is_finite() && self.bin_width > 0.0 {
            Ok(1.0 / self.bin_width)
        } else {
            Err(TraceError::invalid(
                "bin_width",
                format!(
                    "cannot derive a sampling frequency from bin width {}",
                    self.bin_width
                ),
            ))
        }
    }

    /// The sampling frequency FTIO derives from the heatmap: `1 / bin_width`.
    ///
    /// # Panics
    ///
    /// Panics (instead of silently returning `inf`/`NaN`) when the bin width
    /// is not strictly positive and finite; use [`Heatmap::try_sampling_freq`]
    /// to handle that case as an error.
    pub fn sampling_freq(&self) -> f64 {
        self.try_sampling_freq()
            .expect("heatmap bin width must be positive and finite")
    }

    /// Converts the bins to a bandwidth signal in bytes/second (volume per bin
    /// divided by the bin width). This is the signal handed to the DFT step.
    ///
    /// # Panics
    ///
    /// Panics when the bin width is not strictly positive and finite (see
    /// [`Heatmap::sampling_freq`]).
    pub fn bandwidth_signal(&self) -> Vec<f64> {
        assert!(
            self.bin_width.is_finite() && self.bin_width > 0.0,
            "heatmap bin width must be positive and finite"
        );
        self.bins.iter().map(|v| v / self.bin_width).collect()
    }

    /// Restricts the heatmap to bins whose left edge lies in `[t0, t1)`,
    /// used to shrink the analysis time window (Nek5000 case study).
    pub fn window(&self, t0: f64, t1: f64) -> Heatmap {
        let mut bins = Vec::new();
        let mut new_start = t0.max(self.start);
        let mut first = true;
        for (i, &v) in self.bins.iter().enumerate() {
            let left = self.start + i as f64 * self.bin_width;
            if left >= t0 && left < t1 {
                if first {
                    new_start = left;
                    first = false;
                }
                bins.push(v);
            }
        }
        Heatmap {
            start: new_start,
            bin_width: self.bin_width,
            bins,
        }
    }

    /// Serialises the heatmap in the simple CSV-like text format used by the
    /// CLI (`# start, bin_width` header followed by one volume per line);
    /// [`crate::source::HeatmapTextSource`] reads it back.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "# darshan-heatmap start={} bin_width={}\n",
            self.start, self.bin_width
        );
        for v in &self.bins {
            out.push_str(&format!("{v}\n"));
        }
        out
    }
}

fn spread_volume(bins: &mut [f64], start: f64, bin_width: f64, r: &IoRequest) {
    if bins.is_empty() || r.bytes == 0 {
        return;
    }
    let duration = r.duration();
    let total = r.bytes as f64;
    if duration <= 0.0 {
        // Instantaneous request: charge the whole volume to its bin.
        let idx =
            (((r.start - start) / bin_width).floor() as isize).clamp(0, bins.len() as isize - 1);
        bins[idx as usize] += total;
        return;
    }
    let rate = total / duration;
    let first_bin = (((r.start - start) / bin_width).floor() as isize).max(0) as usize;
    let last_bin =
        ((((r.end - start) / bin_width).ceil() as isize).max(1) as usize).min(bins.len());
    for (i, bin) in bins.iter_mut().enumerate().take(last_bin).skip(first_bin) {
        let lo = (start + i as f64 * bin_width).max(r.start);
        let hi = (start + (i + 1) as f64 * bin_width).min(r.end);
        if hi > lo {
            *bin += rate * (hi - lo);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{drain_single, from_bytes, DrainedInput, SourceFormat};
    use crate::AppId;

    /// Reads heatmap text through its streaming reader, drained.
    fn from_text(text: &str) -> TraceResult<Heatmap> {
        let bytes = text.as_bytes().to_vec();
        let mut source = from_bytes(SourceFormat::HeatmapText, AppId::new(0), bytes, 2)?;
        match drain_single(source.as_mut(), "heatmap")? {
            DrainedInput::Heatmap(heatmap) => Ok(heatmap),
            DrainedInput::Trace(_) => panic!("heatmap text has no requests"),
        }
    }

    #[test]
    fn bandwidth_signal_divides_by_bin_width() {
        let h = Heatmap::new(0.0, 2.0, vec![100.0, 0.0, 50.0]);
        assert_eq!(h.bandwidth_signal(), vec![50.0, 0.0, 25.0]);
        assert_eq!(h.sampling_freq(), 0.5);
        assert_eq!(h.duration(), 6.0);
        assert_eq!(h.total_volume(), 150.0);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn from_trace_preserves_volume() {
        let trace = AppTrace::from_requests(
            "x",
            2,
            vec![
                IoRequest::write(0, 0.0, 4.0, 400),
                IoRequest::write(1, 6.0, 7.0, 100),
            ],
        );
        let h = Heatmap::from_trace(&trace, 1.0);
        assert!((h.total_volume() - 500.0).abs() < 1e-9);
        assert_eq!(h.len(), 7);
        assert!((h.bins[0] - 100.0).abs() < 1e-9);
        assert!((h.bins[6] - 100.0).abs() < 1e-9);
        assert_eq!(h.bins[5], 0.0);
    }

    #[test]
    fn request_spanning_bins_is_spread_proportionally() {
        // The heatmap starts at the trace's first request (0.5 s), so the
        // 2-second request at 100 B/s fills two bins with 100 bytes each.
        let trace = AppTrace::from_requests("x", 1, vec![IoRequest::write(0, 0.5, 2.5, 200)]);
        let h = Heatmap::from_trace(&trace, 1.0);
        assert_eq!(h.start, 0.5);
        assert_eq!(h.len(), 2);
        assert!((h.bins[0] - 100.0).abs() < 1e-9);
        assert!((h.bins[1] - 100.0).abs() < 1e-9);

        // Two requests pinning the heatmap origin at 0: the spanning request
        // is split 50 / 100 / 50 across bins 0–2.
        let trace = AppTrace::from_requests(
            "x",
            1,
            vec![
                IoRequest::write(0, 0.0, 0.0, 0),
                IoRequest::write(0, 0.5, 2.5, 200),
            ],
        );
        let h = Heatmap::from_trace(&trace, 1.0);
        assert_eq!(h.start, 0.0);
        assert!((h.bins[0] - 50.0).abs() < 1e-9);
        assert!((h.bins[1] - 100.0).abs() < 1e-9);
        assert!((h.bins[2] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn instantaneous_request_is_charged_to_one_bin() {
        let trace =
            AppTrace::from_requests("x", 1, vec![IoRequest::write(0, 3.2, 3.2, 77.0 as u64)]);
        let h = Heatmap::from_trace(&trace, 1.0);
        assert!((h.total_volume() - 77.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_yields_single_empty_bin() {
        let h = Heatmap::from_trace(&AppTrace::named("x", 1), 10.0);
        assert_eq!(h.len(), 1);
        assert_eq!(h.total_volume(), 0.0);
    }

    #[test]
    fn windowing_selects_bins() {
        let h = Heatmap::new(0.0, 10.0, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let w = h.window(10.0, 40.0);
        assert_eq!(w.bins, vec![2.0, 3.0, 4.0]);
        assert_eq!(w.start, 10.0);
        let all = h.window(0.0, 1000.0);
        assert_eq!(all.bins.len(), 5);
        let none = h.window(100.0, 200.0);
        assert!(none.is_empty());
    }

    #[test]
    fn text_round_trip() {
        let h = Heatmap::new(5.0, 2.5, vec![10.0, 0.0, 3.25]);
        let text = h.to_text();
        let back = from_text(&text).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn bad_text_is_rejected() {
        assert!(from_text("").is_err());
        assert!(from_text("not a header\n1.0\n").is_err());
        assert!(from_text("# darshan-heatmap start=0 bin_width=0\n").is_err());
        assert!(from_text("# darshan-heatmap start=0 bin_width=1\nabc\n").is_err());
        assert!(from_text("# darshan-heatmap start=0 bin_width=1\n-5\n").is_err());
    }

    #[test]
    #[should_panic(expected = "bin width must be positive")]
    fn zero_bin_width_panics() {
        Heatmap::new(0.0, 0.0, vec![]);
    }

    #[test]
    fn try_new_rejects_degenerate_widths_and_starts() {
        assert!(Heatmap::try_new(0.0, 0.0, vec![]).is_err());
        assert!(Heatmap::try_new(0.0, -1.0, vec![]).is_err());
        assert!(Heatmap::try_new(0.0, f64::NAN, vec![]).is_err());
        assert!(Heatmap::try_new(0.0, f64::INFINITY, vec![]).is_err());
        assert!(Heatmap::try_new(f64::NAN, 1.0, vec![]).is_err());
        assert!(Heatmap::try_new(5.0, 2.0, vec![1.0]).is_ok());
    }

    #[test]
    fn degenerate_bin_width_is_an_error_not_infinity() {
        // Only constructible through the public fields; the accessors must
        // refuse rather than hand `inf` to the DFT.
        let broken = Heatmap {
            start: 0.0,
            bin_width: 0.0,
            bins: vec![1.0],
        };
        assert!(broken.try_sampling_freq().is_err());
        let nan = Heatmap {
            bin_width: f64::NAN,
            ..broken.clone()
        };
        assert!(nan.try_sampling_freq().is_err());
    }

    #[test]
    #[should_panic(expected = "bin width must be positive")]
    fn sampling_freq_panics_on_zero_width_instead_of_inf() {
        let broken = Heatmap {
            start: 0.0,
            bin_width: 0.0,
            bins: vec![1.0],
        };
        let _ = broken.sampling_freq();
    }

    #[test]
    fn single_bin_heatmap_has_documented_defaults() {
        let h = Heatmap::new(5.0, 2.5, vec![100.0]);
        assert_eq!(h.duration(), 2.5);
        assert_eq!(h.sampling_freq(), 0.4);
        assert_eq!(h.try_sampling_freq().unwrap(), 0.4);
        assert_eq!(h.bandwidth_signal(), vec![40.0]);
        // And an empty heatmap covers no time at all.
        let empty = Heatmap::new(0.0, 2.5, vec![]);
        assert_eq!(empty.duration(), 0.0);
        assert!(empty.is_empty());
    }
}
