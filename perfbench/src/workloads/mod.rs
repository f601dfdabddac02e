pub mod convert_offline;
pub mod daemon_sessions;
pub mod profile_cold;
pub mod serving_trace;
