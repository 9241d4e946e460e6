package repro.ideabench

import java.util.concurrent.locks.LockSupport

import scala.collection.mutable.ArrayBuffer

import repro.data.{ReligiousPopulation, TweetData}
import repro.refstore.ReferenceStore

/** One upsert as the updater saw it (System.nanoTime instants). */
final case class Upsert(index: Int, dueNs: Long, startNs: Long, ackNs: Long) {
  def country: String = Updater.country(index)
  def lagNs: Long = startNs - dueNs
  def callNs: Long = ackNs - startNs
}

/** Open-loop updater: upsert `i` is due at `t0 + i / rate`, whatever the
  * pipeline is doing, and each is stamped with its due time, the time the
  * call began and the time it returned (the acknowledgement).
  *
  * Upsert `i` adds religion `upd<i>` to country `countries(i % 200)` with a
  * population above every base row and every earlier upsert, so it becomes
  * rank 1 for its country and shows in every enriched tweet from there.
  */
final class Updater(store: ReferenceStore, ratePerSec: Double) {
  require(ratePerSec > 0)
  private val periodNs = (1e9 / ratePerSec).toLong
  private val done = ArrayBuffer.empty[Upsert]
  @volatile private var stopping = false
  private var thread: Thread = _

  def start(t0: Long): Unit = {
    thread = new Thread(() => {
      var i = 0
      while (!stopping) {
        val due = t0 + i * periodNs
        var now = System.nanoTime()
        while (!stopping && now < due) {
          LockSupport.parkNanos(due - now)
          now = System.nanoTime()
        }
        if (!stopping) {
          store.upsertProducts(Seq(Updater.row(i)))
          val ack = System.nanoTime()
          done.synchronized(done += Upsert(i, due, now, ack))
          i += 1
        }
      }
    }, "ideabench-updater")
    thread.setDaemon(true)
    thread.start()
  }

  /** Stop and join; returns every acknowledged upsert in order. */
  def stop(): IndexedSeq[Upsert] = {
    stopping = true
    LockSupport.unpark(thread)
    thread.join()
    done.synchronized(done.toIndexedSeq)
  }
}

object Updater {
  /** Above every generated base population (at most 1 001 000). */
  val BasePopulation = 2000000L

  def country(i: Int): String = TweetData.countries(i % TweetData.NCountries)
  def religion(i: Int): String = s"upd$i"
  def row(i: Int): ReligiousPopulation =
    ReligiousPopulation(s"upd$i", country(i), religion(i), BasePopulation + i)
}
