(* The traced run's per-layer split, read from instrumentation the
   program already exposes (the engine's span profiler, its in-memory
   trace sink, Kernel_stats), plus direct timings of single layers'
   public functions. *)

open Psdp_prelude
open Psdp_linalg
module Profiler = Psdp_obs.Profiler
module Kernel_stats = Psdp_expm.Kernel_stats

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Profiler rows as path -> (count, total, self), so a round's share is
   the difference of two snapshots. *)
type rows = (string * (int * float * float)) list

let snapshot p : rows =
  List.map
    (fun (r : Profiler.row) ->
      (r.Profiler.path, (r.Profiler.count, r.Profiler.total, r.Profiler.self)))
    (Profiler.report p)

let diff (before : rows) (after : rows) : rows =
  List.map
    (fun (path, (c, t, s)) ->
      match List.assoc_opt path before with
      | Some (c0, t0, s0) -> (path, (c - c0, t -. t0, s -. s0))
      | None -> (path, (c, t, s)))
    after

type kernels = {
  matvecs : int;
  cheb_evals : int;
  taylor_evals : int;
  fallbacks : int;
  panel_columns : int;
}

let kernels () =
  {
    matvecs = Kernel_stats.matvecs ();
    cheb_evals = Kernel_stats.cheb_evals ();
    taylor_evals = Kernel_stats.taylor_evals ();
    fallbacks = Kernel_stats.taylor_fallbacks ();
    panel_columns = Kernel_stats.panel_columns ();
  }

let kernels_sub a b =
  {
    matvecs = a.matvecs - b.matvecs;
    cheb_evals = a.cheb_evals - b.cheb_evals;
    taylor_evals = a.taylor_evals - b.taylor_evals;
    fallbacks = a.fallbacks - b.fallbacks;
    panel_columns = a.panel_columns - b.panel_columns;
  }

(* Decision calls whose threshold equals the same job's previous call:
   a probe that taught the bisection nothing. *)
let repeat_calls events ~ids =
  let last = Hashtbl.create 16 and repeats = ref 0 in
  List.iter
    (fun ev ->
      match (Json.mem "kind" ev, Json.mem "job" ev) with
      | Some (Json.Str "decision_call"), Some (Json.Str job)
        when List.mem job ids -> (
          let th = Option.bind (Json.mem "threshold" ev) Json.num in
          (match (Hashtbl.find_opt last job, th) with
          | Some prev, Some t when prev = t -> incr repeats
          | _ -> ());
          match th with Some t -> Hashtbl.replace last job t | None -> ())
      | _ -> ())
    events;
  !repeats

type pass = {
  rows : rows;  (** profiler delta over the pass's jobs *)
  kern : kernels;  (** Kernel_stats delta over the pass *)
  eval_dims : int;  (** Σ over exp evaluations of the job's m *)
  latency : float;  (** Σ client latency *)
  elapsed : float;  (** Σ Job.elapsed *)
  lineage_starts : int;
  repeats : int;
}

(* The engine, solver, decision, evaluator and kernel layers, as totals
   per round: the passes summed, divided by the number of rounds. *)
let split ~rounds passes =
  let k = float_of_int rounds in
  let sum f = List.fold_left (fun s r -> s +. f r) 0.0 passes /. k in
  let row path pick =
    sum (fun r ->
        match List.assoc_opt path r.rows with
        | Some (c, t, s) -> pick (float_of_int c) t s
        | None -> 0.0)
  in
  let count p = row p (fun c _ _ -> c)
  and total p = row p (fun _ t _ -> t)
  and self p = row p (fun _ _ s -> s) in
  let dc = "solve/decision_call" in
  let it = dc ^ "/iteration" in
  let calls = count dc and iters = count it in
  let kern f = sum (fun r -> float_of_int (f r.kern)) in
  let evals = kern (fun k -> k.cheb_evals + k.taylor_evals) in
  let covered =
    sum (fun r ->
        List.fold_left
          (fun s (path, (_, _, self)) ->
            if path = "solve" then s else s +. self)
          0.0 r.rows)
  in
  [
    metric "engine.self_s" "s" (self "solve" +. total "solve/load");
    metric "engine.certify_s" "s" (total "solve/certify");
    metric "engine.wait_s" "s" (sum (fun r -> r.latency -. r.elapsed));
    metric "engine.lineage_starts" "count"
      (sum (fun r -> float_of_int r.lineage_starts));
    metric "solver.decision_calls" "count" calls;
    metric "solver.self_s" "s" (self dc);
    metric "solver.repeat_calls" "count"
      (sum (fun r -> float_of_int r.repeats));
    metric "decision.iterations" "count" iters;
    metric "decision.iters_per_call" "count" (ratio iters calls);
    metric "decision.iteration_us" "us" (1e6 *. ratio (total it) iters);
    metric "decision.cert_checks" "count" (count (it ^ "/cert"));
    metric "decision.cert_s" "s" (total (it ^ "/cert"));
    metric "evaluator.exp_evals" "count" (count (it ^ "/expm"));
    metric "evaluator.expm_s" "s" (total (it ^ "/expm"));
    metric "evaluator.gram_s" "s" (total (it ^ "/gram"));
    metric "evaluator.sketch_s" "s" (total (it ^ "/sketch"));
    metric "expm.matvecs" "count" (kern (fun k -> k.matvecs));
    metric "expm.matvecs_per_eval" "count"
      (ratio (kern (fun k -> k.matvecs)) evals);
    metric "expm.cheb_evals" "count" (kern (fun k -> k.cheb_evals));
    metric "expm.taylor_fallbacks" "count" (kern (fun k -> k.fallbacks));
    (* k/m of the sketch the evaluator built; the exact backend works at
       full dimension, which reads as 1. *)
    metric "sketch.dim_ratio" "ratio"
      (if evals = 0.0 then 1.0
       else
         ratio (kern (fun k -> k.panel_columns))
           (sum (fun r -> float_of_int r.eval_dims)));
    metric "obs.span_coverage_frac" "ratio"
      (ratio covered (sum (fun r -> r.latency)));
  ]

(* Seconds per call of [f]: the median over five batches, each sized
   from one calibration call to last about 40 ms. *)
let time_per_call f =
  let t0 = Timer.now () in
  ignore (Sys.opaque_identity (f ()));
  let once = Float.max 1e-9 (Timer.now () -. t0) in
  let reps = max 1 (int_of_float (0.04 /. once)) in
  let per =
    Array.init 5 (fun _ ->
        let t0 = Timer.now () in
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (f ()))
        done;
        (Timer.now () -. t0) /. float_of_int reps)
  in
  Stats.median per

let random_symmetric rng m =
  let s = 1.0 /. sqrt (float_of_int m) in
  Mat.symmetrize (Mat.init m m (fun _ _ -> s *. Rng.gaussian rng))

(* Dense kernels the exact backend spends its time in: Matfun.expm at
   growing m, and the dense λmax certificate check. GFlop/s charges the
   nominal 9m³ flops of a symmetric eigendecomposition with vectors plus
   the V·diag·Vᵀ rebuild. *)
let linalg_probes () =
  let rng = Rng.create 7 in
  let expm_us m =
    let a = random_symmetric rng m in
    1e6 *. time_per_call (fun () -> Matfun.expm a)
  in
  let lmax_us m =
    let inst =
      Psdp_instances.Beamforming.instance ~rng ~antennas:m ~users:m ()
    in
    let x = Array.make m (0.5 /. float_of_int m) in
    1e6
    *. time_per_call (fun () ->
           Psdp_core.Certificate.check_dual ~method_:Psdp_core.Certificate.Dense
             inst x)
  in
  let e16 = expm_us 16 and e32 = expm_us 32 and e64 = expm_us 64 in
  let e128 = expm_us 128 in
  [
    metric "linalg.expm_us.m16" "us" e16;
    metric "linalg.expm_us.m32" "us" e32;
    metric "linalg.expm_us.m64" "us" e64;
    metric "linalg.expm_us.m128" "us" e128;
    metric "linalg.expm_gflops.m64" "GFlop/s"
      (9.0 *. (64.0 ** 3.0) /. (e64 *. 1e-6) /. 1e9);
    metric "linalg.lmax_us.m16" "us" (lmax_us 16);
    metric "linalg.lmax_us.m64" "us" (lmax_us 64);
  ]

(* Weighted_gram.apply_many, the sketched backend's matvec, on a panel
   of 8 columns: operator nonzeros × columns per second. *)
let sparse_probe ~pool =
  let rng = Rng.create 11 in
  let inst = Psdp_instances.Random_psd.factored ~rng ~dim:256 ~n:32 () in
  let gram =
    Psdp_sparse.Weighted_gram.create (Psdp_core.Instance.factors inst)
  in
  Psdp_sparse.Weighted_gram.set_weights gram (Array.make 32 (1.0 /. 32.0));
  let panel = Array.init 8 (fun _ -> Rng.gaussian_array rng 256) in
  let t =
    time_per_call (fun () ->
        Psdp_sparse.Weighted_gram.apply_many ~pool gram panel)
  in
  let nnz = float_of_int (Psdp_sparse.Weighted_gram.nnz gram) in
  [ metric "sparse.apply_many_gnnz_per_s" "Gnnz/s" (nnz *. 8.0 /. t /. 1e9) ]
