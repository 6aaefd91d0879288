(* The jobs each workload runs, and how the workload seed turns them into
   the instance files the program reads.

   Every instance is drawn once from a fixed base seed, exactly as
   [psdp gen --family F --dim M -n N --seed 1] draws it. The workload
   seed then applies a random coordinate permutation (P·Aᵢ·Pᵀ for every
   constraint) and a random constraint order. The program sees different
   files, digests and summation orders for every seed, but the same
   spectra, so decision-call and iteration counts repeat exactly and no
   job's pass/fail verdict depends on the seed. Fresh draws per seed were
   tried and rejected: on the exact backend about one draw in thirty of
   the random and gnp families runs out of decision calls with a gap
   above ε (the repeated-probe fault below), which would make the
   failure count depend on the seed. *)

open Psdp_prelude
open Psdp_core
open Psdp_instances
open Psdp_sparse

type family = Random | Beamforming | Projectors | Cycle | Gnp | Diagonal

let family_name = function
  | Random -> "random"
  | Beamforming -> "beamforming"
  | Projectors -> "projectors"
  | Cycle -> "cycle"
  | Gnp -> "gnp"
  | Diagonal -> "diagonal"

type backend = Exact | Sketched

let backend_name = function Exact -> "exact" | Sketched -> "sketched"

let decision_backend = function
  | Exact -> Decision.Exact
  | Sketched -> Decision.Sketched { seed = 17; sketch_dim = None }

type job = {
  family : family;
  m : int;
  n : int;  (** requested constraints; gnp and cycle take theirs from the graph *)
  eps : float;
  backend : backend;
  fault : string option;
      (** a known program fault this job hits every time: it is not
          permuted, and its failed check is expected *)
}

let job ?(eps = 0.3) ?fault backend family m n =
  { family; m; n; eps; backend; fault }

let base_seed = 1

let draw j =
  let rng = Rng.create base_seed in
  match j.family with
  | Random -> Random_psd.factored ~rng ~dim:j.m ~n:j.n ()
  | Diagonal -> Diagonal.random ~rng ~dim:j.m ~n:j.n ()
  | Beamforming -> Beamforming.instance ~rng ~antennas:j.m ~users:j.n ()
  | Projectors -> fst (Known_opt.orthogonal_projectors ~rng ~dim:j.m ~n:j.n)
  | Cycle -> Graph_packing.edge_packing (Graph.cycle j.m)
  | Gnp -> Graph_packing.edge_packing (Graph.gnp ~rng ~vertices:j.m ~p:0.3)

(* Closed-form optima, computed here rather than taken from the
   program: OPT = n for orthogonal projectors, and m / λmax(L(C_m)) for
   edge packing on the cycle, whose Laplacian spectrum is
   2 − 2cos(2πk/m). *)
let known_opt j ~n =
  match j.family with
  | Projectors -> Some (float_of_int n)
  | Cycle ->
      let lmax = ref 0.0 in
      for k = 0 to j.m - 1 do
        let pi = 4.0 *. atan 1.0 in
        lmax :=
          Float.max !lmax
            (2.0 -. (2.0 *. cos (2.0 *. pi *. float_of_int k /. float_of_int j.m)))
      done;
      Some (float_of_int j.m /. !lmax)
  | Random | Beamforming | Gnp | Diagonal -> None

let stuck_probe_fault =
  "repeated-probe: decision calls 4-12 all probe threshold 3.16634; each \
   ends in a faithful dual exit whose rescaled value is below the \
   incumbent, so the bracket never moves, the call budget runs out, and \
   the job reports certified with gap 0.480 > eps"

(* The seed's presentation of an instance: a coordinate permutation and
   a constraint order. Both depend only on the seed and the shape, so
   every instance of a lineage chain is presented alike (lineage vectors
   index constraints, so a chain must share one order). *)
let present ~seed inst =
  let m = Instance.dim inst and n = Instance.num_constraints inst in
  let rng = Rng.create (0x5eed + seed) in
  let rows = Rng.permutation rng m in
  let order = Rng.permutation rng n in
  Instance.of_factors
    (Array.map
       (fun src ->
         let q = Factored.factor (Instance.factor inst src) in
         let { Csr.row_ptr; col_idx; values; _ } = q in
         let coo = ref [] in
         for r = 0 to Csr.rows q - 1 do
           for k = row_ptr.(r) to row_ptr.(r + 1) - 1 do
             coo := (rows.(r), col_idx.(k), values.(k)) :: !coo
           done
         done;
         Factored.of_csr (Csr.of_coo ~rows:m ~cols:(Csr.cols q) !coo))
       order)

let exact_cold =
  let e ?eps family m n = job ?eps Exact family m n in
  [
    e Random 8 8;
    e Beamforming 8 8;
    e Gnp 8 8;
    e Diagonal 8 8;
    e Projectors 16 16;
    e ~eps:0.2 Cycle 8 8;
    e ~eps:0.1 Projectors 8 8;
  ]

let sketched_cold =
  let s ?fault family m n = job ?fault Sketched family m n in
  [
    s Beamforming 8 8;
    s Gnp 8 8;
    s Diagonal 8 8;
    s Projectors 8 8;
    s Projectors 12 12;
    s ~fault:stuck_probe_fault Random 8 8;
  ]

(* The serving chain: an m = 8, n = 4 beamforming parent, then requests
   that each drift the previous instance by 5%. The drift stream is
   fixed; the seed presents the whole chain under one permutation. *)
let lineage_parent = job Exact Beamforming 6 4
let lineage_requests = 100
let lineage_drift = 0.05

let lineage_chain () =
  let rng = Rng.create (base_seed + 1) in
  let parent = draw lineage_parent in
  let chain = Array.make (lineage_requests + 1) parent in
  for k = 1 to lineage_requests do
    chain.(k) <- Drift.perturb ~rng ~magnitude:lineage_drift chain.(k - 1)
  done;
  chain

(* The discarded warm-up job every set-up runs before timing starts;
   its shape differs from every round job, so it never warms the cache. *)
let warmup backend = job backend Projectors 10 10
