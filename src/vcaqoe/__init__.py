"""Video-conferencing QoE estimation from packet traces.

Estimates per-second frame rate, bitrate, frame jitter, and resolution
class from IP/UDP metadata, with RTP-header baselines, a from-scratch
random forest, an evaluation harness, and a synthetic session generator
that provides exact ground truth.
"""

from .assembly import (AssemblyDiagnostics, IpUdpAssemblyParams,
                       assemble_ipudp, assemble_rtp, diagnose)
from .classify import (PayloadTypeMap, SizeThreshold, classification_report,
                       classify_by_payload_type, classify_by_size, fit_vmin)
from .evaluation import (ResolutionBinning, mae, mrae, resolution_confusion,
                         sweep, within_tolerance)
from .features import (IPUDP_FEATURE_NAMES, RTP_FEATURE_NAMES, SemanticParams,
                       session_feature_rows)
from .forest import (RandomForestClassifier, RandomForestRegressor,
                     kfold_by_session, load_forest, save_forest)
from .heuristics import session_windows, window_series
from .ingest import (GroundTruthSeries, read_ground_truth_csv,
                     read_packet_csv, read_pcap, write_ground_truth_csv,
                     write_packet_csv, write_pcap)
from .pipeline import analyze_session, paired_metric
from .session import MediaClass, PacketRecord, RtpHeader, Session, WindowTable
from .synth import (ImpairmentProfile, SenderProfile, generate, impair,
                    truth_from_frame_log)

__version__ = "0.1.0"
