(* Output checks computed apart from the program: the instance is read
   back from the text file the program was given, with a parser of our
   own, and λmax comes from a cyclic Jacobi eigensolver that lives here.
   Nothing below calls into the solver's linear algebra. *)

type instance = {
  m : int;
  factors : (int * int * float) list array;
      (** constraint i as (row, column, value) entries of Qᵢ, Aᵢ = QᵢQᵢᵀ *)
  ranks : int array;
}

let parse_instance text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let words l = String.split_on_char ' ' l |> List.filter (( <> ) "") in
  match lines with
  | "psdp-instance v1" :: dim :: cons :: rest ->
      let m = Scanf.sscanf dim "dim %d" Fun.id in
      let n = Scanf.sscanf cons "constraints %d" Fun.id in
      let factors = Array.make n [] and ranks = Array.make n 0 in
      let rec go = function
        | [] -> ()
        | l :: rest -> (
            match words l with
            | [ "factor"; i; _rows; cols; nnz ] ->
                let i = int_of_string i and nnz = int_of_string nnz in
                ranks.(i) <- int_of_string cols;
                let rec take k acc rest =
                  if k = 0 then (acc, rest)
                  else
                    match rest with
                    | e :: rest ->
                        let entry =
                          Scanf.sscanf e "%d %d %f" (fun r c v -> (r, c, v))
                        in
                        take (k - 1) (entry :: acc) rest
                    | [] -> failwith "check: truncated factor"
                in
                let entries, rest = take nnz [] rest in
                factors.(i) <- entries;
                go rest
            | _ -> failwith ("check: unexpected line " ^ l))
      in
      go rest;
      { m; factors; ranks }
  | _ -> failwith "check: bad instance header"

(* M = Σᵢ xᵢ·QᵢQᵢᵀ as a dense row-major array. *)
let weighted_sum inst x =
  let m = inst.m in
  let acc = Array.make (m * m) 0.0 in
  Array.iteri
    (fun i entries ->
      if x.(i) <> 0.0 then begin
        let q = Array.make_matrix m inst.ranks.(i) 0.0 in
        List.iter (fun (r, c, v) -> q.(r).(c) <- v) entries;
        for a = 0 to m - 1 do
          for b = 0 to m - 1 do
            let s = ref 0.0 in
            for c = 0 to inst.ranks.(i) - 1 do
              s := !s +. (q.(a).(c) *. q.(b).(c))
            done;
            acc.((a * m) + b) <- acc.((a * m) + b) +. (x.(i) *. !s)
          done
        done
      end)
    inst.factors;
  acc

(* Largest eigenvalue of a symmetric matrix by cyclic Jacobi rotations,
   swept until the off-diagonal mass is negligible. *)
let jacobi_lambda_max m a =
  let a = Array.copy a in
  let get i j = a.((i * m) + j) and set i j v = a.((i * m) + j) <- v in
  let off () =
    let s = ref 0.0 in
    for i = 0 to m - 1 do
      for j = 0 to m - 1 do
        if i <> j then s := !s +. (get i j *. get i j)
      done
    done;
    !s
  in
  let total =
    Array.fold_left (fun s v -> s +. (v *. v)) 0.0 a |> Float.max 1e-300
  in
  let sweeps = ref 0 in
  while off () > 1e-30 *. total && !sweeps < 100 do
    incr sweeps;
    for p = 0 to m - 2 do
      for q = p + 1 to m - 1 do
        let apq = get p q in
        if apq <> 0.0 then begin
          let theta = (get q q -. get p p) /. (2.0 *. apq) in
          let t =
            Float.copy_sign 1.0 theta
            /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.0))
          in
          let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
          let s = t *. c in
          for k = 0 to m - 1 do
            let akp = get k p and akq = get k q in
            set k p ((c *. akp) -. (s *. akq));
            set k q ((s *. akp) +. (c *. akq))
          done;
          for k = 0 to m - 1 do
            let apk = get p k and aqk = get q k in
            set p k ((c *. apk) -. (s *. aqk));
            set q k ((s *. apk) +. (c *. aqk))
          done
        end
      done
    done
  done;
  let best = ref neg_infinity in
  for i = 0 to m - 1 do
    best := Float.max !best (get i i)
  done;
  !best

type solved = {
  value : float;
  upper_bound : float;
  certified : bool;
  x : float array option;  (** the cached dual, when the cache holds one *)
}

(* Every reason the result is wrong; [] means it passed. *)
let verify ~text ~eps ~opt (r : solved) =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if not r.certified then fail "not certified";
  if not (r.upper_bound <= (1.0 +. eps) *. r.value) then
    fail "gap %.4f > eps %.2f" ((r.upper_bound /. r.value) -. 1.0) eps;
  (match opt with
  | Some opt ->
      if r.value > opt *. (1.0 +. 1e-6) then
        fail "value %.9g above OPT %.9g" r.value opt;
      if opt > r.upper_bound *. (1.0 +. 1e-9) then
        fail "upper bound %.9g below OPT %.9g" r.upper_bound opt
  | None -> ());
  (match r.x with
  | None -> fail "no cached dual"
  | Some x ->
      let inst = parse_instance text in
      if Array.length x <> Array.length inst.factors then fail "dual length";
      if Array.exists (fun v -> not (v >= 0.0)) x then fail "dual not >= 0";
      let l1 = Array.fold_left ( +. ) 0.0 x in
      if Float.abs (l1 -. r.value) > 1e-9 *. Float.max 1.0 r.value then
        fail "|x|_1 %.12g <> value %.12g" l1 r.value;
      let lmax = jacobi_lambda_max inst.m (weighted_sum inst x) in
      if lmax > 1.0 +. 1e-6 then fail "lambda_max %.9g > 1" lmax);
  List.rev !errs
