(* What main.ml needs from a workload. A workload is made once per run from
   its seed (inputs and reference answers, untimed); [setup] then builds
   its documents and store (timed as setup_s) and may be called again for
   a fresh state that replays the same op stream. *)

type instance = {
  next : unit -> Measure.op;  (* the next op of the closed loop *)
  store : Ops.disk option;  (* the store the loop saves, if any *)
  close : unit -> unit;
}

type t = {
  facts : (string * string) list;  (* input sizes, printed with the run *)
  minimums : (string * int) list;  (* family -> samples its tail needs *)
  cycle : int;  (* ops in one whole cycle of the op mix *)
  setup : unit -> instance;
  fixed_ops : (float -> int) option;
      (* ops in an end-to-end run of the given seconds, for a workload
         measured by a fixed amount of work; [None]: by time *)
  e2e_probes : Measure.samples -> Ops.disk option;
      (* after the loop: ops of the families the loop does not run, on the
         workload's own documents; returns the store they saved *)
  layer_probes : instance -> (string * float) list;
      (* after the traced loop: the per-layer probes that apply *)
}

(* Fig. 5 sources rendered as XML text. *)
let movie_pair ?(rules = Imprecise.Rulesets.full) (wl : Imprecise.Data.Workloads.t) label =
  {
    Ops.label;
    left = Imprecise.Xml.Printer.to_string (Imprecise.Data.Workloads.mpeg7_doc wl);
    right = Imprecise.Xml.Printer.to_string (Imprecise.Data.Workloads.imdb_doc wl);
    rules;
    dtd = wl.Imprecise.Data.Workloads.dtd;
    factorize = false;
    blocker = Imprecise.Blocking.All_pairs;
    expect = None;
  }
