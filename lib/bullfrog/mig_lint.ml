(* DDL-install-time migration linter.

   Runs the lib/analysis decision procedure over a migration spec,
   before any data moves, and produces a verdict the install path acts
   on: split-output partition proofs (disjointness + coverage), data-
   and constraint-loss warnings, and a precise/imprecise classification
   of each population w.r.t. granule conversion (paper §4.3) —
   replacing the engine's implicit runtime fallback with an explicit
   DDL-time verdict. *)

open Bullfrog_sql
open Bullfrog_db
module Pred = Bullfrog_analysis.Predicate
module Invert = Bullfrog_analysis.Mig_invert

type severity = Sev_error | Sev_warning

type hazard_kind = Lost_rows | Overlap | Lossy_projection | Constraint_narrowing

type hazard = { hz_kind : hazard_kind; hz_severity : severity; hz_detail : string }

type precision = Precise | Imprecise of string list

type partition =
  | Part_replicating  (** every output takes all input rows (column split) *)
  | Part_disjoint  (** differing predicates, proven pairwise disjoint *)
  | Part_unproven  (** differing predicates, disjointness not provable *)
  | Part_na  (** single output or join population *)

type input_verdict = {
  iv_alias : string;
  iv_table : string;
  iv_category : Classify.category;
  iv_tracking : Classify.tracking;
  iv_precision : precision;
}

type stmt_verdict = {
  sv_stmt : string;
  sv_inputs : input_verdict list;
  sv_partition : partition;
  sv_hazards : hazard list;
}

type action = Act_ok | Act_on_conflict | Act_reject

type stmt_invert = {
  si_stmt : string;
  si_smo : Invert.smo;
  si_verdict : Invert.verdict;
}

type t = {
  lint_migration : string;
  lint_stmts : stmt_verdict list;
  lint_hazards : hazard list;  (** migration-level (dropped-table) hazards *)
  lint_action : action;
  lint_inverts : stmt_invert list;
  lint_backward : Migration.t option;
}

let c_stmts = Obs.Counters.make "analysis.lint.stmts"
let c_precise = Obs.Counters.make "analysis.lint.precise_inputs"
let c_imprecise = Obs.Counters.make "analysis.lint.imprecise_inputs"
let c_errors = Obs.Counters.make "analysis.lint.errors"
let c_warnings = Obs.Counters.make "analysis.lint.warnings"

let hazard_kind_to_string = function
  | Lost_rows -> "lost-rows"
  | Overlap -> "overlap"
  | Lossy_projection -> "lossy-projection"
  | Constraint_narrowing -> "constraint-narrowing"

let all_hazards t = t.lint_hazards @ List.concat_map (fun s -> s.sv_hazards) t.lint_stmts

let errors t = List.filter (fun h -> h.hz_severity = Sev_error) (all_hazards t)
let warnings t = List.filter (fun h -> h.hz_severity = Sev_warning) (all_hazards t)

let invertible t =
  List.for_all
    (fun si ->
      match si.si_verdict with Invert.Non_invertible _ -> false | _ -> true)
    t.lint_inverts

let non_invertible_reasons t =
  List.filter_map
    (fun si ->
      match si.si_verdict with
      | Invert.Non_invertible r -> Some (Printf.sprintf "%s: %s" si.si_stmt r)
      | _ -> None)
    t.lint_inverts

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let lower = String.lowercase_ascii

(* Nullability facts for a single input table: a column cannot be NULL
   if declared NOT NULL or part of the primary key. *)
let not_null_env (schema : Schema.t) =
  let pk =
    match schema.Schema.primary_key with
    | None -> []
    | Some pk -> Array.to_list (Array.map (fun i -> lower schema.Schema.columns.(i).Schema.name) pk)
  in
  {
    Pred.top_env with
    not_null =
      (fun c ->
        List.mem c pk
        ||
        match Schema.col_index schema c with
        | Some i -> schema.Schema.columns.(i).Schema.not_null
        | None -> false);
  }

(* Columns of [heap] (owned by [alias]) referenced from [e], as lower-
   cased names.  Unqualified references count only when no other input
   has the column (same ownership rule as the classifier). *)
let referenced_cols inputs alias heap e =
  List.filter_map
    (fun (q, c) ->
      match q with
      | Some q when lower q = lower alias ->
          if Schema.col_index heap.Heap.schema c <> None then Some (lower c) else None
      | Some _ -> None
      | None -> (
          let holders =
            List.filter
              (fun (_, _, h) -> Schema.col_index h.Heap.schema c <> None)
              inputs
          in
          match holders with
          | [ (a, _, _) ] when a = alias -> Some (lower c)
          | _ -> None))
    (Ast.columns_of_expr e)

(* The output-column names of an expanded population, paired with their
   defining expressions. *)
let named_projections (s : Ast.select) =
  List.map
    (function
      | Ast.Proj_expr (e, alias) ->
          let name =
            match (alias, e) with
            | Some a, _ -> a
            | None, Ast.Col (_, c) -> c
            | None, _ -> "?column?"
          in
          (lower name, e)
      | Ast.Proj_star | Ast.Proj_table_star _ -> ("*", Ast.Null_lit))
    s.Ast.projections

let create_parts = function
  | Some (Ast.Create_table { columns; constraints; _ }) -> Some (columns, constraints)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Per-statement analysis                                              *)
(* ------------------------------------------------------------------ *)

let lint_statement ?(fk_join = `Tuple) catalog drop_old (stmt : Migration.statement) =
  Obs.Counters.bump c_stmts;
  let ctx = { Planner.catalog; run_subquery = (fun _ -> []) } in
  let plans = Classify.classify_statement ~fk_join catalog stmt in
  let name = stmt.Migration.stmt_name in
  let outputs = stmt.Migration.outputs in
  let input_pairs =
    match outputs with
    | o :: _ -> Migration.input_tables_of_select catalog o.Migration.out_population
    | [] -> []
  in
  let inputs =
    List.map
      (fun (alias, table) -> (alias, table, Catalog.find_table_exn catalog table))
      input_pairs
  in
  let single_input = match inputs with [ _ ] -> true | _ -> false in
  let hazards = ref [] in
  let add kind sev detail =
    hazards := { hz_kind = kind; hz_severity = sev; hz_detail = detail } :: !hazards
  in

  (* -------- split partition analysis (single-input statements) ------- *)
  let env =
    match inputs with
    | [ (_, _, heap) ] -> not_null_env heap.Heap.schema
    | _ -> Pred.top_env
  in
  let preds =
    List.map
      (fun o ->
        ( o.Migration.out_name,
          Option.map Pred.unqualify o.Migration.out_population.Ast.where ))
      outputs
  in
  let partition =
    if not single_input then Part_na
    else
      match preds with
      | [] | [ _ ] ->
          (* a single filtered output over a dropped input sheds the
             non-matching rows — intentional in the paper's examples,
             but worth saying out loud *)
          (match (preds, inputs) with
          | [ (out, Some p) ], [ (_, table, _) ]
            when List.mem table drop_old && not (Pred.covers ~env [ p ]) ->
              add Lost_rows Sev_warning
                (Printf.sprintf
                   "statement %S: rows of dropped table %s not matching %s are not \
                    migrated into %s"
                   name table (Pretty.expr_to_string p) out)
          | _ -> ());
          Part_na
      | (_, p0) :: rest when List.for_all (fun (_, p) -> p = p0) rest ->
          Part_replicating
      | _ ->
          (* a genuine row split: prove pairwise disjointness... *)
          let all_proven = ref true in
          let arr = Array.of_list preds in
          let full = Ast.Bool_lit true in
          Array.iteri
            (fun i (oi, pi) ->
              Array.iteri
                (fun j (oj, pj) ->
                  if i < j && pi <> pj then
                    let ei = Option.value pi ~default:full in
                    let ej = Option.value pj ~default:full in
                    if not (Pred.disjoint ~env ei ej) then begin
                      all_proven := false;
                      add Overlap Sev_error
                        (Printf.sprintf
                           "statement %S: outputs %s and %s may both receive a row \
                            (predicates not provably disjoint); duplicate lazy \
                            inserts need ON CONFLICT mode"
                           name oi oj)
                    end)
                arr)
            arr;
          (* ...and coverage, when the input disappears after the flip *)
          (match inputs with
          | [ (_, table, _) ] when List.mem table drop_old ->
              let ps = List.map (fun (_, p) -> Option.value p ~default:full) preds in
              if not (Pred.covers ~env ps) then
                add Lost_rows Sev_error
                  (Printf.sprintf
                     "statement %S: split outputs provably do not cover every row of \
                      dropped table %s (NULL-valued rows or predicate gaps are lost)"
                     name table)
          | _ -> ());
          if !all_proven then Part_disjoint else Part_unproven
  in

  (* -------- constraint narrowing ------------------------------------ *)
  List.iter
    (fun o ->
      match create_parts o.Migration.out_create with
      | None -> ()
      | Some (columns, constraints) ->
          let expanded = Planner.expand_select ctx o.Migration.out_population in
          let projs = named_projections expanded in
          (* map an output column to its source input column, when bare *)
          let source_of out_col =
            match List.assoc_opt (lower out_col) projs with
            | Some (Ast.Col (q, c)) -> (
                match inputs with
                | [ (_, _, heap) ] -> Some (heap, lower c)
                | _ -> (
                    match q with
                    | Some q -> (
                        match
                          List.find_opt (fun (a, _, _) -> lower a = lower q) inputs
                        with
                        | Some (_, _, h) -> Some (h, lower c)
                        | None -> None)
                    | None -> (
                        match
                          List.filter
                            (fun (_, _, h) -> Schema.col_index h.Heap.schema c <> None)
                            inputs
                        with
                        | [ (_, _, h) ] -> Some (h, lower c)
                        | _ -> None)))
            | _ -> None
          in
          let nullable heap c =
            let env = not_null_env heap.Heap.schema in
            not (env.Pred.not_null c)
          in
          let pk_cols =
            List.filter_map
              (fun cd -> if cd.Ast.col_primary_key then Some cd.Ast.col_name else None)
              columns
            @ List.concat_map
                (function Ast.C_primary_key cs -> cs | _ -> [])
                constraints
          in
          (* NOT NULL (incl. via PRIMARY KEY) on data the input may NULL *)
          List.iter
            (fun cd ->
              let declared_nn =
                cd.Ast.col_not_null || cd.Ast.col_primary_key
                || List.exists (fun c -> lower c = lower cd.Ast.col_name) pk_cols
              in
              if declared_nn then
                match source_of cd.Ast.col_name with
                | Some (heap, src) when nullable heap src ->
                    add Constraint_narrowing Sev_warning
                      (Printf.sprintf
                         "output %s declares NOT NULL on %s but input column %s.%s may \
                          hold NULL"
                         o.Migration.out_name cd.Ast.col_name heap.Heap.name src)
                | _ -> ())
            columns;
          (* PK/UNIQUE uniqueness the old data need not satisfy *)
          let unique_sets =
            (if pk_cols = [] then [] else [ ("PRIMARY KEY", pk_cols) ])
            @ List.filter_map
                (fun cd ->
                  if cd.Ast.col_unique then Some ("UNIQUE", [ cd.Ast.col_name ])
                  else None)
                columns
            @ List.filter_map
                (function Ast.C_unique cs -> Some ("UNIQUE", cs) | _ -> None)
                constraints
          in
          let group_cols =
            List.filter_map
              (function Ast.Col (_, c) -> Some (lower c) | _ -> None)
              o.Migration.out_population.Ast.group_by
          in
          List.iter
            (fun (label, cols) ->
              let guaranteed =
                if o.Migration.out_population.Ast.group_by <> [] then
                  (* grouped outputs are unique on the full group key *)
                  List.for_all
                    (fun gc ->
                      List.exists (fun c -> lower c = gc) cols)
                    group_cols
                else if single_input then
                  let srcs = List.filter_map source_of cols in
                  List.length srcs = List.length cols
                  &&
                  match inputs with
                  | [ (_, _, heap) ] ->
                      Classify.is_unique_key heap (List.map snd srcs)
                  | _ -> false
                else
                  (* join populations multiply rows; claim nothing *)
                  false
              in
              if not guaranteed then
                add Constraint_narrowing Sev_warning
                  (Printf.sprintf
                     "output %s declares %s (%s) but uniqueness is not implied by the \
                      input data"
                     o.Migration.out_name label (String.concat ", " cols)))
            unique_sets)
    outputs;

  (* -------- precise vs imprecise granule conversion (§4.3) ----------- *)
  let expanded_projs =
    List.concat_map
      (fun o -> named_projections (Planner.expand_select ctx o.Migration.out_population))
      outputs
  in
  let input_verdicts =
    List.map
      (fun (ip : Classify.input_plan) ->
        let heap =
          match
            List.find_opt (fun (a, _, _) -> a = ip.Classify.ip_alias) inputs
          with
          | Some (_, _, h) -> h
          | None -> Catalog.find_table_exn catalog ip.Classify.ip_table
        in
        (* A predicate over an output column converts precisely into
           input granules only when the column is a bare input column;
           computed/aggregated columns force the conservative superset
           fallback at query time. *)
        let fallback =
          List.filter_map
            (fun (out_name, e) ->
              match e with
              | Ast.Col _ -> None
              | _ ->
                  let refs = referenced_cols inputs ip.Classify.ip_alias heap e in
                  let countstar =
                    match e with Ast.Agg (_, _, None) -> true | _ -> false
                  in
                  if refs <> [] || countstar then Some out_name else None)
            expanded_projs
        in
        let fallback = List.sort_uniq compare fallback in
        let precision =
          match ip.Classify.ip_tracking with
          | Classify.T_none -> Precise (* granules owned by the other input *)
          | Classify.T_bitmap | Classify.T_hash _ ->
              if fallback = [] then Precise else Imprecise fallback
        in
        (match precision with
        | Precise -> Obs.Counters.bump c_precise
        | Imprecise _ -> Obs.Counters.bump c_imprecise);
        {
          iv_alias = ip.Classify.ip_alias;
          iv_table = ip.Classify.ip_table;
          iv_category = ip.Classify.ip_category;
          iv_tracking = ip.Classify.ip_tracking;
          iv_precision = precision;
        })
      plans
  in
  {
    sv_stmt = name;
    sv_inputs = input_verdicts;
    sv_partition = partition;
    sv_hazards = List.rev !hazards;
  }

(* ------------------------------------------------------------------ *)
(* Invertibility (§4.2j): bridge Migration.t + catalog facts into the
   AST-level analyzer, then fold its backward selects into a Migration.t
   over the NEW schema.                                                *)
(* ------------------------------------------------------------------ *)

let table_facts_of catalog table =
  let heap = Catalog.find_table_exn catalog table in
  let schema = heap.Heap.schema in
  let env = not_null_env schema in
  let col_name i = lower schema.Schema.columns.(i).Schema.name in
  let tf_columns =
    Array.to_list schema.Schema.columns
    |> List.map (fun c ->
           let n = lower c.Schema.name in
           { Invert.col_name = n; col_not_null = env.Pred.not_null n })
  in
  let pk =
    match schema.Schema.primary_key with
    | None -> []
    | Some pk -> [ Array.to_list (Array.map col_name pk) ]
  in
  let uniq_idx =
    List.filter_map
      (fun idx ->
        if Index.is_unique idx then
          Some (Array.to_list (Array.map col_name (Index.key_cols idx)))
        else None)
      heap.Heap.indexes
  in
  { Invert.tf_name = lower table; tf_columns; tf_unique_keys = pk @ uniq_idx }

let output_facts_of ctx (o : Migration.output) =
  let expanded = Planner.expand_select ctx o.Migration.out_population in
  let of_unique_keys =
    (match create_parts o.Migration.out_create with
    | Some (columns, constraints) ->
        let pk_cols =
          List.filter_map
            (fun cd -> if cd.Ast.col_primary_key then Some (lower cd.Ast.col_name) else None)
            columns
          @ List.concat_map
              (function Ast.C_primary_key cs -> List.map lower cs | _ -> [])
              constraints
        in
        (if pk_cols = [] then [] else [ pk_cols ])
        @ List.filter_map
            (fun cd ->
              if cd.Ast.col_unique then Some [ lower cd.Ast.col_name ] else None)
            columns
        @ List.filter_map
            (function Ast.C_unique cs -> Some (List.map lower cs) | _ -> None)
            constraints
    | None -> [])
    @ List.filter_map
        (function
          | Ast.Create_index { columns; unique = true; _ } ->
              Some (List.map lower columns)
          | _ -> None)
        o.Migration.out_indexes
  in
  {
    Invert.of_name = lower o.Migration.out_name;
    of_projections = named_projections expanded;
    of_where = Option.map Pred.unqualify expanded.Ast.where;
    of_group_by = expanded.Ast.group_by <> [];
    of_unique_keys;
  }

let invert_statement catalog drop_old (stmt : Migration.statement) =
  let ctx = { Planner.catalog; run_subquery = (fun _ -> []) } in
  let input_pairs =
    match stmt.Migration.outputs with
    | o :: _ -> Migration.input_tables_of_select catalog o.Migration.out_population
    | [] -> []
  in
  let sf =
    {
      Invert.sf_name = stmt.Migration.stmt_name;
      sf_inputs =
        List.map (fun (a, t) -> (a, table_facts_of catalog t)) input_pairs;
      sf_outputs = List.map (output_facts_of ctx) stmt.Migration.outputs;
      sf_dropped = drop_old;
    }
  in
  let env =
    match input_pairs with
    | [ (_, table) ] -> not_null_env (Catalog.find_table_exn catalog table).Heap.schema
    | _ -> Pred.top_env
  in
  let smo, verdict = Invert.analyze ~env sf in
  { si_stmt = stmt.Migration.stmt_name; si_smo = smo; si_verdict = verdict }

(* The derived rollback spec: one backward statement per synthesized
   backward select (a row split's branches each become a statement
   repopulating the SAME old table — hence [allow_shared_outputs]), all
   forward outputs become [drop_old].  [None] when any statement is
   non-invertible, or when nothing needs reconstructing (rollback then
   reduces to dropping the outputs). *)
let derive_backward (spec : Migration.t) inverts =
  let all_invertible =
    List.for_all
      (fun si ->
        match si.si_verdict with Invert.Non_invertible _ -> false | _ -> true)
      inverts
  in
  let backs =
    List.concat_map
      (fun si ->
        match si.si_verdict with
        | Invert.Invertible bos | Invert.Invertible_lossy (bos, _) -> bos
        | Invert.Non_invertible _ -> [])
      inverts
  in
  if (not all_invertible) || backs = [] then None
  else
    let fwd_outputs =
      List.concat_map
        (fun (st : Migration.statement) ->
          List.map (fun (o : Migration.output) -> o.Migration.out_name) st.Migration.outputs)
        spec.Migration.statements
    in
    let statements =
      List.mapi
        (fun i (bo : Invert.backward_output) ->
          {
            Migration.stmt_name = Printf.sprintf "%s_rb%d" spec.Migration.name i;
            outputs =
              [
                {
                  Migration.out_name = bo.Invert.bo_table;
                  out_create = None;
                  out_population = bo.Invert.bo_select;
                  out_indexes = [];
                };
              ];
          })
        backs
    in
    Some
      (Migration.make
         ~name:(spec.Migration.name ^ "_rollback")
         ~drop_old:fwd_outputs ~allow_shared_outputs:true statements)

(* ------------------------------------------------------------------ *)
(* Migration-level analysis                                            *)
(* ------------------------------------------------------------------ *)

let lint ?(fk_join = `Tuple) catalog (spec : Migration.t) =
  let drop_old = spec.Migration.drop_old in
  let stmts =
    List.map (lint_statement ~fk_join catalog drop_old) spec.Migration.statements
  in
  (* Lossy projection: columns of a dropped table no output carries. *)
  let ctx = { Planner.catalog; run_subquery = (fun _ -> []) } in
  let mig_hazards =
    List.filter_map
      (fun table ->
        match Catalog.find_table catalog table with
        | None -> None
        | Some heap ->
            let preserved =
              List.concat_map
                (fun (stmt : Migration.statement) ->
                  List.concat_map
                    (fun (o : Migration.output) ->
                      let pop = o.Migration.out_population in
                      let inputs =
                        List.map
                          (fun (a, t) -> (a, t, Catalog.find_table_exn catalog t))
                          (Migration.input_tables_of_select catalog pop)
                      in
                      List.concat_map
                        (fun (a, t, h) ->
                          if t <> table then []
                          else
                            List.concat_map
                              (fun (_, e) -> referenced_cols inputs a h e)
                              (named_projections (Planner.expand_select ctx pop)))
                        inputs)
                    stmt.Migration.outputs)
                spec.Migration.statements
            in
            let missing =
              Array.to_list heap.Heap.schema.Schema.columns
              |> List.filter_map (fun c ->
                     let n = lower c.Schema.name in
                     if List.mem n preserved then None else Some n)
            in
            if missing = [] then None
            else
              Some
                {
                  hz_kind = Lossy_projection;
                  hz_severity = Sev_warning;
                  hz_detail =
                    Printf.sprintf
                      "dropped table %s: column(s) %s are not carried into any output"
                      table
                      (String.concat ", " missing);
                })
      drop_old
  in
  let inverts =
    List.map (invert_statement catalog drop_old) spec.Migration.statements
  in
  let v =
    {
      lint_migration = spec.Migration.name;
      lint_stmts = stmts;
      lint_hazards = mig_hazards;
      lint_action = Act_ok;
      lint_inverts = inverts;
      lint_backward = derive_backward spec inverts;
    }
  in
  let errs = errors v in
  let action =
    if List.exists (fun h -> h.hz_kind = Lost_rows) errs then Act_reject
    else if List.exists (fun h -> h.hz_kind = Overlap) errs then Act_on_conflict
    else Act_ok
  in
  List.iter
    (fun h ->
      Obs.Counters.bump
        (match h.hz_severity with Sev_error -> c_errors | Sev_warning -> c_warnings))
    (all_hazards v);
  { v with lint_action = action }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let tracking_to_string = function
  | Classify.T_bitmap -> "bitmap"
  | Classify.T_hash cols -> Printf.sprintf "hash(%s)" (String.concat ", " cols)
  | Classify.T_none -> "untracked"

let precision_to_string = function
  | Precise -> "precise"
  | Imprecise cols ->
      Printf.sprintf "imprecise (fallback on %s)" (String.concat ", " cols)

let partition_to_string = function
  | Part_replicating -> "replicating (every output takes all rows)"
  | Part_disjoint -> "row split, outputs proven disjoint"
  | Part_unproven -> "row split, disjointness NOT proven"
  | Part_na -> "n/a"

let format v =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "migration %S: %s" v.lint_migration
    (match v.lint_action with
    | Act_ok -> "OK"
    | Act_on_conflict -> "OVERLAP — requires ON CONFLICT mode"
    | Act_reject -> "REJECT");
  List.iter
    (fun s ->
      line "  statement %S" s.sv_stmt;
      line "    partition: %s" (partition_to_string s.sv_partition);
      List.iter
        (fun iv ->
          line "    input %s (%s): %s, %s, conversion %s" iv.iv_table
            (if iv.iv_alias = iv.iv_table then "-" else iv.iv_alias)
            (Classify.category_to_string iv.iv_category)
            (tracking_to_string iv.iv_tracking)
            (precision_to_string iv.iv_precision))
        s.sv_inputs;
      List.iter
        (fun h ->
          line "    %s [%s]: %s"
            (match h.hz_severity with Sev_error -> "ERROR" | Sev_warning -> "warning")
            (hazard_kind_to_string h.hz_kind)
            h.hz_detail)
        s.sv_hazards)
    v.lint_stmts;
  List.iter
    (fun h ->
      line "  %s [%s]: %s"
        (match h.hz_severity with Sev_error -> "ERROR" | Sev_warning -> "warning")
        (hazard_kind_to_string h.hz_kind)
        h.hz_detail)
    v.lint_hazards;
  line "  BACKWARD:";
  List.iter
    (fun si ->
      line "    statement %S: %s — %s" si.si_stmt
        (Invert.smo_to_string si.si_smo)
        (Invert.verdict_summary si.si_verdict))
    v.lint_inverts;
  (match v.lint_backward with
  | None ->
      if invertible v then
        line "    rollback = drop the output tables (nothing to reconstruct)"
      else line "    no backward transform derivable — rollback impossible"
  | Some b ->
      line "    derived rollback spec %S (drop %s):" b.Migration.name
        (String.concat ", " b.Migration.drop_old);
      List.iter
        (fun (st : Migration.statement) ->
          List.iter
            (fun o -> line "      %s" (Migration.output_ddl o))
            st.Migration.outputs)
        b.Migration.statements);
  Buffer.contents buf

(* Sharded deployments need to know which inputs migrate by group: an
   n:1 aggregate whose group key does not cover the input's partition
   column has groups straddling shards, and per-shard migration would
   silently produce partial aggregates.  The cluster coordinator rejects
   those specs at [start_migration] using this view. *)
let aggregate_group_keys catalog (spec : Migration.t) =
  List.concat_map
    (fun stmt ->
      match Classify.classify_statement catalog stmt with
      | plans ->
          List.filter_map
            (fun (p : Classify.input_plan) ->
              match (p.Classify.ip_category, p.Classify.ip_tracking) with
              | Classify.Many_to_one, Classify.T_hash cols ->
                  Some (p.Classify.ip_table, cols)
              | _ -> None)
            plans
      | exception Db_error.Sql_error _ ->
          (* unsupported shapes are rejected later by install itself *)
          [])
    spec.Migration.statements
